module Dyngraph = Churnet_graph.Dyngraph
module Poisson_churn = Churnet_churn.Poisson_churn
module Prng = Churnet_util.Prng
module Dist = Churnet_util.Dist

type t = {
  n : int;
  graph : Dyngraph.t;
  churn : Poisson_churn.t;
  rng : Prng.t;
  (* Time of the next pending jump, drawn lazily; [None] = not drawn.  We
     pre-draw so [run_until_time] can stop exactly at a deadline without
     executing the jump that crosses it. *)
  mutable pending : (Poisson_churn.decision * float) option;
  mutable time : float;
  (* Scratch for the batched runners — not state (refilled per batch,
     never serialized). *)
  batch_dec : Bytes.t;
  batch_dts : float array;
}

let batch_cap = 4096

(* Every argument is checked before the graph takes over the arena (d
   by [Dyngraph.create] itself), so a refused create leaves the arena's
   model as it was.  [lambda] is [Poisson_churn.create]'s check, made
   early. *)
let create ?arena ~rng ?lambda ~n ~d ~regenerate () =
  if n < 2 then invalid_arg "Poisson_model.create: n must be >= 2";
  (match lambda with
  | Some l when l <= 0. -> invalid_arg "Poisson_churn.create: lambda must be positive"
  | _ -> ());
  let graph_rng = Prng.split rng in
  let churn_rng = Prng.split rng in
  let graph = Dyngraph.create ?arena ~rng:graph_rng ~d ~regenerate () in
  let churn = Poisson_churn.create ~rng:churn_rng ?lambda ~n () in
  {
    n;
    graph;
    churn;
    rng;
    pending = None;
    time = 0.;
    batch_dec =
      (match arena with None -> Bytes.create batch_cap | Some a -> Dyngraph.arena_bytes a batch_cap);
    batch_dts =
      (match arena with
      | None -> Array.make batch_cap 0.
      | Some a -> Dyngraph.arena_floats a batch_cap);
  }

let n t = t.n
let d t = Dyngraph.d t.graph
let regenerates t = Dyngraph.regenerate t.graph
let graph t = t.graph
let round t = Poisson_churn.round t.churn
let time t = t.time
let population t = Dyngraph.alive_count t.graph

let draw_pending t =
  match t.pending with
  | Some p -> p
  | None ->
      let p = Poisson_churn.decide t.churn ~alive:(Dyngraph.alive_count t.graph) in
      t.pending <- Some p;
      p

let execute t (decision, dt) =
  t.pending <- None;
  (* lint: allow hot-path-alloc — the kernels reach this store only for
     the one pending jump a [run_until_time] call executes before it
     batches; the batch path stores the clock once per batch. *)
  t.time <- t.time +. dt;
  match decision with
  | Poisson_churn.Birth ->
      ignore (Dyngraph.add_node t.graph ~birth:(Poisson_churn.round t.churn))
  | Poisson_churn.Death ->
      let victim = Dyngraph.random_alive t.graph in
      Dyngraph.kill t.graph victim

let step t = execute t (draw_pending t)

let next_jump_time t =
  let _, dt = draw_pending t in
  t.time +. dt

(* The churn PRNG and the graph PRNG are independent streams (split at
   [create]), so a run of jumps can be drawn from the churn side first
   ([Poisson_churn.decide_batch], tracking the population incrementally)
   and only then applied to the arena in one pass
   ([Dyngraph.churn_batch]).  Both streams see exactly the draw sequence
   of a [step] loop, [t.time] accumulates the same dts by the same
   additions in the same order, and a run ends with the deadline-crossing
   jump pending exactly as a [step] loop would leave it — so the result
   is byte-identical to stepping one jump at a time (a differential test
   asserts this).  What batching buys is constant factor: no per-jump
   pending option and no per-call dispatch. *)

(* One drawn-and-applied batch.  Preconditions: [t.pending = None] and
   [t.time <= deadline].  Returns the number of jumps applied; on return
   [t.pending] holds the deadline-crossing jump if one was drawn. *)
let run_batch t ~deadline ~limit =
  (* Births executed by [execute] are stamped with the churn round as of
     their own draw; once the whole batch is pre-drawn the round has
     advanced past all of them, so stamps are recovered arithmetically:
     batch position i was draw number [round0 + 1 + i]. *)
  let round0 = Poisson_churn.round t.churn in
  let count, pending =
    Poisson_churn.decide_batch t.churn
      ~alive:(Dyngraph.alive_count t.graph)
      ~deadline ~limit ~decisions:t.batch_dec ~dts:t.batch_dts
  in
  Dyngraph.churn_batch t.graph ~decisions:t.batch_dec ~count ~birth0:(round0 + 1);
  let time = ref t.time in
  for i = 0 to count - 1 do
    time := !time +. t.batch_dts.(i)
  done;
  (* lint: allow hot-path-alloc — the per-jump sum above stays unboxed in a
     local; a store into the mixed record [t] boxes, so it runs once per
     batch. *)
  t.time <- !time;
  t.pending <- pending;
  count

let run_until_time t deadline =
  let more =
    ref
      (match t.pending with
      | Some (_, dt) when t.time +. dt > deadline -> false
      | Some p ->
          execute t p;
          true
      | None -> true)
  in
  while !more do
    let count = run_batch t ~deadline ~limit:batch_cap in
    more := count = batch_cap && t.pending = None
  done

(* A pre-drawn pending jump is the next jump of the chain: executing it
   counts towards [k], exactly as [step] would.  A batch with no deadline
   leaves nothing pending. *)
let rec run_rounds t k =
  if k > 0 then
    match t.pending with
    | Some p ->
        execute t p;
        run_rounds t (k - 1)
    | None -> run_rounds t (k - run_batch t ~deadline:infinity ~limit:(min k batch_cap))

let warm_up t = run_rounds t (12 * t.n)

(* Ids are monotone with birth, so the youngest alive node — the arena's
   birth-list tail — is exactly the most recent surviving newborn.  This
   replaces a cached id whose invalidation forced an O(alive) rescan
   whenever the cached newborn had died. *)
let newest t = Dyngraph.newest_alive t.graph

(* After a birth the newborn is the youngest alive node. *)
let rec step_until_birth t =
  let ((decision, _) as jump) = draw_pending t in
  execute t jump;
  match (decision, newest t) with
  | Poisson_churn.Birth, Some id -> id
  | _ -> step_until_birth t

let snapshot t = Dyngraph.snapshot t.graph

module Codec = Churnet_util.Codec

let encode w t =
  Codec.varint w t.n;
  Codec.varint w (d t);
  Dyngraph.encode w t.graph;
  Poisson_churn.encode w t.churn;
  Prng.encode w t.rng;
  (* The lazily pre-drawn jump is state: it was already taken from the
     churn PRNG, so dropping it would shift every subsequent draw. *)
  Codec.option
    (fun w (decision, dt) ->
      Codec.u8 w (match decision with Poisson_churn.Birth -> 0 | Poisson_churn.Death -> 1);
      Codec.f64 w dt)
    w t.pending;
  Codec.f64 w t.time

let decode r =
  let n = Codec.read_varint r in
  let d = Codec.read_varint r in
  let graph = Dyngraph.decode r in
  let churn = Poisson_churn.decode r in
  let rng = Prng.decode r in
  let pending =
    Codec.read_option
      (fun r ->
        let decision =
          match Codec.read_u8 r with
          | 0 -> Poisson_churn.Birth
          | 1 -> Poisson_churn.Death
          | b ->
              raise
                (Codec.Error
                   (Printf.sprintf "Poisson_model.decode: bad decision tag %d" b))
        in
        let dt = Codec.read_f64 r in
        (decision, dt))
      r
  in
  let time = Codec.read_f64 r in
  if n < 2 || d <> Dyngraph.d graph then
    raise (Codec.Error "Poisson_model.decode: inconsistent fields");
  {
    n;
    graph;
    churn;
    rng;
    pending;
    time;
    batch_dec = Bytes.create batch_cap;
    batch_dts = Array.make batch_cap 0.;
  }
