(* The expansion probe as it stood before it scored its nested families
   incrementally: every candidate is built as a fresh index array, loaded
   into a bitset and measured with [Snapshot.expansion].  Kept verbatim,
   except that the sweep cuts are built here from [Spectral.sweep_order]
   (see [sweep_sets_of]), as the oracle for the differential tests in
   test_expansion.ml, which require [Probe.probe] and
   [Probe.expansion_profile] to give the same report and to leave the
   caller's generator in the same state. *)

module Spectral = Churnet_expansion.Spectral
module Snapshot = Churnet_graph.Snapshot
module Bitset = Churnet_util.Bitset
module Prng = Churnet_util.Prng

type witness = Churnet_expansion.Probe.witness = { family : string; size : int; expansion : float }

type report = Churnet_expansion.Probe.report = {
  min_expansion : float;
  witness : witness;
  per_family : (string * float) list;
  candidates_tested : int;
}

(* Prefixes of a sweep order at geometric sizes up to half its length,
   as [Spectral.sweep_sets] built them. *)
let sweep_sets_of order =
  let m = Array.length order in
  if m < 4 then []
  else begin
    let sets = ref [] in
    let size = ref 2 in
    while !size <= m / 2 do
      sets := Array.sub order 0 !size :: !sets;
      size := max (!size + 1) (!size * 3 / 2)
    done;
    List.rev !sets
  end

(* Accumulator over candidates.  The two scratch bitsets (candidate set
   and boundary dedup, both capacity n) are reused across every candidate
   so the probe allocates nothing per set tested. *)
type acc = {
  mutable best : witness;
  families : (string, float) Hashtbl.t;
  mutable tested : int;
  set_scratch : Bitset.t;
  boundary_scratch : Bitset.t;
}

let new_acc snap =
  let n = Snapshot.n snap in
  {
    best = { family = "none"; size = 0; expansion = infinity };
    families = Hashtbl.create 16;
    tested = 0;
    set_scratch = Bitset.create n;
    boundary_scratch = Bitset.create n;
  }

let consider acc snap ~family ~min_size ~max_size indices =
  let size = Array.length indices in
  if size >= min_size && size <= max_size && size > 0 then begin
    let set = acc.set_scratch in
    Bitset.clear set;
    Array.iter (fun i -> Bitset.add set i) indices;
    let e = Snapshot.expansion ~scratch:acc.boundary_scratch snap set in
    acc.tested <- acc.tested + 1;
    let prev = Option.value ~default:infinity (Hashtbl.find_opt acc.families family) in
    if e < prev then Hashtbl.replace acc.families family e;
    if e < acc.best.expansion then acc.best <- { family; size; expansion = e }
  end

let size_ladder ~min_size ~max_size =
  let sizes = ref [] in
  let s = ref (max 1 min_size) in
  while !s <= max_size do
    sizes := !s :: !sizes;
    s := max (!s + 1) (!s * 3 / 2)
  done;
  if not (List.mem max_size !sizes) && max_size >= min_size then
    sizes := max_size :: !sizes;
  List.rev !sizes

let bfs_ball snap seed ~max_size =
  (* Return the list of balls B(seed, r) for growing r, each as indices. *)
  let dist = Snapshot.bfs snap seed in
  let n = Snapshot.n snap in
  let by_dist = Hashtbl.create 64 in
  for v = 0 to n - 1 do
    if dist.(v) >= 0 then
      Hashtbl.replace by_dist dist.(v)
        (v :: Option.value ~default:[] (Hashtbl.find_opt by_dist dist.(v)))
  done;
  let balls = ref [] in
  let current = ref [] in
  let r = ref 0 in
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt by_dist !r with
    | None -> continue := false
    | Some layer ->
        current := layer @ !current;
        let size = List.length !current in
        if size <= max_size then balls := Array.of_list !current :: !balls;
        if size > max_size then continue := false;
        incr r
  done;
  List.rev !balls

let component_unions snap ~max_size =
  let label, k = Snapshot.components snap in
  if k <= 1 then []
  else begin
    let buckets = Array.make k [] in
    Array.iteri (fun v c -> buckets.(c) <- v :: buckets.(c)) label;
    let comps = Array.to_list (Array.map Array.of_list buckets) in
    let sorted = List.sort (fun a b -> Int.compare (Array.length a) (Array.length b)) comps in
    (* Prefix unions of components, smallest first, skipping the largest
       (which would exceed n/2 anyway in a connected-ish graph). *)
    let unions = ref [] in
    let acc = ref [||] in
    List.iteri
      (fun i comp ->
        if i < List.length sorted - 1 then begin
          let next = Array.append !acc comp in
          if Array.length next <= max_size then begin
            acc := next;
            unions := next :: !unions
          end
        end)
      sorted;
    List.rev !unions
  end

let age_prefixes snap ~sizes =
  (* Index order IS age order (oldest = index 0). *)
  let n = Snapshot.n snap in
  List.concat_map
    (fun s ->
      if s <= n then
        [ Array.init s Fun.id; (* oldest s *)
          Array.init s (fun i -> n - 1 - i) (* youngest s *) ]
      else [])
    sizes

let degree_prefixes snap ~sizes =
  let n = Snapshot.n snap in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Int.compare (Snapshot.degree snap a) (Snapshot.degree snap b)) order;
  List.filter_map (fun s -> if s <= n then Some (Array.sub order 0 s) else None) sizes

let random_sets rng snap ~sizes ~samples =
  let n = Snapshot.n snap in
  List.concat_map
    (fun s ->
      if s > n then []
      else
        List.init samples (fun _ -> Prng.sample_without_replacement rng s n))
    sizes

let probe ~rng ?(min_size = 1) ?max_size ?(samples_per_size = 8) ?sweep_sets snap =
  let n = Snapshot.n snap in
  let max_size = Option.value ~default:(n / 2) max_size in
  let acc = new_acc snap in
  let consider ~family indices = consider acc snap ~family ~min_size ~max_size indices in
  let sizes = size_ladder ~min_size ~max_size in
  (* Singletons: exactly the per-vertex degrees. *)
  if min_size <= 1 then
    for v = 0 to n - 1 do
      consider ~family:"singleton" [| v |]
    done;
  (* Small components and their unions: expansion exactly 0. *)
  List.iter (consider ~family:"component-union") (component_unions snap ~max_size);
  (* BFS balls from random seeds and from the lowest-degree seeds. *)
  let seeds =
    let random = Array.to_list (Prng.sample_without_replacement rng (min 12 n) n) in
    let by_degree = Array.init n Fun.id in
    Array.sort
      (fun a b -> Int.compare (Snapshot.degree snap a) (Snapshot.degree snap b))
      by_degree;
    let low = Array.to_list (Array.sub by_degree 0 (min 6 n)) in
    List.sort_uniq Int.compare (random @ low)
  in
  List.iter
    (fun seed -> List.iter (consider ~family:"bfs-ball") (bfs_ball snap seed ~max_size))
    seeds;
  (* Age prefixes: the paper's worst cases live among the oldest nodes. *)
  List.iter (consider ~family:"age-prefix") (age_prefixes snap ~sizes);
  (* Lowest-degree-first prefixes. *)
  List.iter (consider ~family:"degree-prefix") (degree_prefixes snap ~sizes);
  (* Uniform random sets. *)
  List.iter (consider ~family:"random")
    (random_sets rng snap ~sizes ~samples:samples_per_size);
  (* Spectral sweep cuts. *)
  let sweep_sets =
    match sweep_sets with Some sets -> sets | None -> sweep_sets_of (Spectral.sweep_order snap)
  in
  List.iter (consider ~family:"sweep-cut") sweep_sets;
  {
    min_expansion = acc.best.expansion;
    witness = acc.best;
    per_family =
      Hashtbl.fold (fun fam e l -> (fam, e) :: l) acc.families []
      |> List.sort (fun (_, a) (_, b) -> Float.compare a b);
    candidates_tested = acc.tested;
  }

let expansion_profile ~rng snap ~sizes =
  let n = Snapshot.n snap in
  Array.map
    (fun s ->
      if s < 1 || s > n then (s, nan)
      else begin
        let acc = new_acc snap in
        let consider ~family indices =
          consider acc snap ~family ~min_size:s ~max_size:s indices
        in
        List.iter (consider ~family:"age-prefix") (age_prefixes snap ~sizes:[ s ]);
        List.iter (consider ~family:"degree-prefix") (degree_prefixes snap ~sizes:[ s ]);
        List.iter (consider ~family:"random") (random_sets rng snap ~sizes:[ s ] ~samples:8);
        (s, acc.best.expansion)
      end)
    sizes
