module Snapshot = Churnet_graph.Snapshot

type report = {
  lambda2 : float;
  spectral_gap : float;
  cheeger_lower : float;
  sweep_conductance : float;
  sweep_set_size : int;
  component_size : int;
}

(* The largest component as a local CSR: [members] maps a local index to
   its snapshot index, ascending, and local row [i] is
   [rows.(offsets.(i)) .. rows.(offsets.(i + 1) - 1)], the snapshot row of
   [members.(i)] mapped to local indices.  The map is monotone, so local
   rows stay ascending like the snapshot's. *)
type component = { members : int array; offsets : int array; rows : int array }

let largest_component snap =
  let label, k = Snapshot.components snap in
  if k = 0 then { members = [||]; offsets = [| 0 |]; rows = [||] }
  else begin
    let n = Snapshot.n snap in
    let sizes = Array.make k 0 in
    for v = 0 to n - 1 do
      sizes.(label.(v)) <- sizes.(label.(v)) + 1
    done;
    let best = ref 0 in
    for c = 1 to k - 1 do
      if sizes.(c) > sizes.(!best) then best := c
    done;
    let m = sizes.(!best) in
    let members = Array.make m 0 and local_of = Array.make n (-1) in
    let next = ref 0 in
    for v = 0 to n - 1 do
      if label.(v) = !best then begin
        members.(!next) <- v;
        local_of.(v) <- !next;
        incr next
      end
    done;
    let offsets = Array.make (m + 1) 0 in
    for i = 0 to m - 1 do
      offsets.(i + 1) <- offsets.(i) + Snapshot.degree snap members.(i)
    done;
    let rows = Array.make offsets.(m) 0 in
    for i = 0 to m - 1 do
      let v = members.(i) in
      for k = 0 to Snapshot.degree snap v - 1 do
        rows.(offsets.(i) + k) <- local_of.(Snapshot.neighbor snap v k)
      done
    done;
    { members; offsets; rows }
  end

(* Power iteration of the lazy walk W = (I + D^-1 A)/2 with deflation
   against the stationary distribution (which is degree-proportional for
   a reversible chain).  [x] is the iterate, [y] scratch, and
   [lambda.(0)] the latest Rayleigh quotient. *)
type walk = {
  comp : component;
  deg : float array;
  total_deg : float;
  x : float array;
  y : float array;
  lambda : float array;
}

(* Remove the component along the constant (right) eigenvector in the
   degree-weighted inner product. *)
let deflate deg total_deg v =
  let proj = ref 0. in
  for i = 0 to Array.length v - 1 do
    proj := !proj +. (deg.(i) *. v.(i))
  done;
  let c = !proj /. total_deg in
  for i = 0 to Array.length v - 1 do
    v.(i) <- v.(i) -. c
  done

let normalize v =
  let sq = ref 0. in
  for i = 0 to Array.length v - 1 do
    sq := !sq +. (v.(i) *. v.(i))
  done;
  let norm = sqrt !sq in
  if norm > 0. then
    for i = 0 to Array.length v - 1 do
      v.(i) <- v.(i) /. norm
    done

(* One power step: y = W x, the Rayleigh quotient of x in the
   degree-weighted inner product, then x = normalize (deflate y). *)
let power_step w =
  let { comp; deg; x; y; _ } = w in
  let m = Array.length x in
  for i = 0 to m - 1 do
    let acc = ref 0. in
    for k = comp.offsets.(i) to comp.offsets.(i + 1) - 1 do
      acc := !acc +. x.(comp.rows.(k))
    done;
    y.(i) <- 0.5 *. (x.(i) +. (!acc /. deg.(i)))
  done;
  let num = ref 0. and den = ref 0. in
  for i = 0 to m - 1 do
    num := !num +. (deg.(i) *. y.(i) *. x.(i));
    den := !den +. (deg.(i) *. x.(i) *. x.(i))
  done;
  if !den > 0. then w.lambda.(0) <- !num /. !den;
  Array.blit y 0 x 0 m;
  deflate deg w.total_deg x;
  normalize x

(* [last] power steps on a component of at least 2 vertices, from a fixed
   start vector.  Returns (lambda, x) after step [keep] (at most [last])
   and after step [last]; step k depends only on step k - 1, so one run
   serves both.  A negative count means no step. *)
let power_iteration comp ~keep ~last =
  let keep = max 0 keep and last = max 0 last in
  let m = Array.length comp.members in
  let deg = Array.create_float m in
  for i = 0 to m - 1 do
    deg.(i) <- float_of_int (max 1 (comp.offsets.(i + 1) - comp.offsets.(i)))
  done;
  let total_deg = ref 0. in
  for i = 0 to m - 1 do
    total_deg := !total_deg +. deg.(i)
  done;
  let x = Array.create_float m in
  for i = 0 to m - 1 do
    x.(i) <- Float.sin (float_of_int ((i * 7919) mod 104729))
  done;
  let w =
    { comp; deg; total_deg = !total_deg; x; y = Array.make m 0.; lambda = [| 1. |] }
  in
  deflate deg w.total_deg x;
  normalize x;
  let kept = ref (1., x) in
  for step = 1 to last do
    if step - 1 = keep && keep < last then kept := (w.lambda.(0), Array.copy x);
    power_step w
  done;
  if keep = last then kept := (w.lambda.(0), x);
  (!kept, (w.lambda.(0), x))

let conductance_of_sweep comp order =
  let m = Array.length comp.members in
  let offsets = comp.offsets in
  let total_vol = offsets.(m) in
  let in_set = Array.make m false in
  let vol = ref 0 and cut = ref 0 in
  let best = ref infinity and best_size = ref 0 in
  for idx = 0 to m - 1 do
    let v = order.(idx) in
    in_set.(v) <- true;
    vol := !vol + (offsets.(v + 1) - offsets.(v));
    for k = offsets.(v) to offsets.(v + 1) - 1 do
      if in_set.(comp.rows.(k)) then decr cut else incr cut
    done;
    if idx < m - 1 then begin
      let denom = min !vol (total_vol - !vol) in
      if denom > 0 then begin
        let phi = float_of_int !cut /. float_of_int denom in
        if phi < !best then begin
          best := phi;
          best_size := idx + 1
        end
      end
    end
  done;
  (!best, !best_size)

let sorted_order vec =
  let order = Array.init (Array.length vec) Fun.id in
  Array.sort (fun a b -> Float.compare vec.(a) vec.(b)) order;
  order

(* The sweep vector is the iterate after this many steps. *)
let sweep_iters = 150

let report_of comp (lambda2, vec) =
  let sweep_conductance, sweep_set_size = conductance_of_sweep comp (sorted_order vec) in
  {
    lambda2;
    spectral_gap = 1. -. lambda2;
    cheeger_lower = (1. -. lambda2) /. 2.;
    sweep_conductance;
    sweep_set_size;
    component_size = Array.length comp.members;
  }

let degenerate_report m =
  { lambda2 = 1.; spectral_gap = 0.; cheeger_lower = 0.; sweep_conductance = nan;
    sweep_set_size = 0; component_size = m }

(* The sweep order mapped back to snapshot indices; empty on a component
   too small to cut (fewer than 4 vertices). *)
let order_of comp vec =
  if Array.length comp.members < 4 then [||]
  else Array.map (fun k -> comp.members.(k)) (sorted_order vec)

let analyze ?(iters = 300) snap =
  let comp = largest_component snap in
  let m = Array.length comp.members in
  if m < 2 then degenerate_report m
  else report_of comp (snd (power_iteration comp ~keep:iters ~last:iters))

let sweep_order snap =
  let comp = largest_component snap in
  if Array.length comp.members < 4 then [||]
  else
    let _, (_, vec) = power_iteration comp ~keep:sweep_iters ~last:sweep_iters in
    order_of comp vec

let analyze_with_sweep_order ?(iters = 300) snap =
  let comp = largest_component snap in
  let m = Array.length comp.members in
  if m < 2 then (degenerate_report m, [||])
  else begin
    let early, late =
      power_iteration comp ~keep:(min iters sweep_iters) ~last:(max iters sweep_iters)
    in
    let at_iters, at_sweep = if iters <= sweep_iters then (early, late) else (late, early) in
    (report_of comp at_iters, order_of comp (snd at_sweep))
  end
