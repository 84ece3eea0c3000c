module Prng = Churnet_util.Prng
module Dist = Churnet_util.Dist

type t = {
  lambda : float;
  mu : float;
  rng : Prng.t;
  mutable time : float;
  mutable round : int;
  mutable births : int;
  mutable deaths : int;
}

type decision = Birth | Death

let create ~rng ?(lambda = 1.) ~n () =
  if n <= 0 then invalid_arg "Poisson_churn.create: n must be positive";
  if lambda <= 0. then invalid_arg "Poisson_churn.create: lambda must be positive";
  { lambda; mu = lambda /. float_of_int n; rng; time = 0.; round = 0; births = 0; deaths = 0 }

let lambda t = t.lambda
let mu t = t.mu

let decide t ~alive =
  if alive < 0 then invalid_arg "Poisson_churn.decide: negative population";
  let total_rate = (float_of_int alive *. t.mu) +. t.lambda in
  let dt = Dist.exponential t.rng total_rate in
  t.time <- t.time +. dt;
  t.round <- t.round + 1;
  let p_birth = t.lambda /. total_rate in
  if alive = 0 || Prng.bernoulli t.rng p_birth then begin
    t.births <- t.births + 1;
    (Birth, dt)
  end
  else begin
    t.deaths <- t.deaths + 1;
    (Death, dt)
  end

(* Bulk version of [decide].  The churn PRNG is independent of the graph
   PRNG (the model splits them at creation), so a whole run of jumps can
   be drawn here before any of them touches the graph: the draw sequence
   on [t.rng] is exactly the one the equivalent [decide] loop would
   produce, with the population tracked incrementally (+1 per birth, -1
   per death — a death is impossible at population 0 because the birth
   branch short-circuits without consuming a Bernoulli draw, just as in
   [decide]). *)
let decide_batch t ~alive ~deadline ~limit ~decisions ~dts =
  if alive < 0 then invalid_arg "Poisson_churn.decide_batch: negative population";
  let cap = min limit (min (Bytes.length decisions) (Array.length dts)) in
  let alive = ref alive in
  let count = ref 0 in
  let pending = ref None in
  let continue = ref (cap > 0) in
  while !continue do
    let total_rate = (float_of_int !alive *. t.mu) +. t.lambda in
    let dt = Dist.exponential t.rng total_rate in
    t.time <- t.time +. dt;
    t.round <- t.round + 1;
    let p_birth = t.lambda /. total_rate in
    let birth = !alive = 0 || Prng.bernoulli t.rng p_birth in
    if birth then t.births <- t.births + 1 else t.deaths <- t.deaths + 1;
    (* [t.time] here equals the caller's clock plus this jump's [dt] (both
       accumulate the same dts by the same additions in the same order),
       so this comparison is bitwise the one a [Poisson_model.step] loop
       makes against [next_jump_time]: a batch stops exactly where
       stepping one jump at a time would. *)
    if t.time > deadline then begin
      pending := Some ((if birth then Birth else Death), dt);
      continue := false
    end
    else begin
      Bytes.set decisions !count (if birth then '\000' else '\001');
      dts.(!count) <- dt;
      alive := if birth then !alive + 1 else !alive - 1;
      incr count;
      if !count >= cap then continue := false
    end
  done;
  (!count, !pending)

let time t = t.time
let round t = t.round
let births t = t.births
let deaths t = t.deaths

module Codec = Churnet_util.Codec

let encode w t =
  Codec.f64 w t.lambda;
  Codec.f64 w t.mu;
  Prng.encode w t.rng;
  Codec.f64 w t.time;
  Codec.varint w t.round;
  Codec.varint w t.births;
  Codec.varint w t.deaths

let decode r =
  let lambda = Codec.read_f64 r in
  let mu = Codec.read_f64 r in
  let rng = Prng.decode r in
  let time = Codec.read_f64 r in
  let round = Codec.read_varint r in
  let births = Codec.read_varint r in
  let deaths = Codec.read_varint r in
  if lambda <= 0. || mu <= 0. || round < 0 || births < 0 || deaths < 0 then
    raise (Codec.Error "Poisson_churn.decode: inconsistent fields");
  { lambda; mu; rng; time; round; births; deaths }
