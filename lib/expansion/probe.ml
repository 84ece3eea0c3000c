module Snapshot = Churnet_graph.Snapshot
module Prng = Churnet_util.Prng

type witness = { family : string; size : int; expansion : float }

type report = {
  min_expansion : float;
  witness : witness;
  per_family : (string * float) list;
  candidates_tested : int;
}

(* The incremental evaluator.  S grows one vertex at a time; [inside]
   holds a membership byte per vertex and [count] the number of each
   vertex's neighbours in S.  Adding u takes u out of the boundary if it
   was there (some neighbour in S) and puts in every neighbour whose
   count goes 0 -> 1 while it is outside S, so |∂S| is current after
   O(deg u) work.  [clear] undoes exactly the cells a set touched, so one
   evaluator serves every candidate of a probe.  Vertices of a set must
   be distinct. *)
type eval = {
  snap : Snapshot.t;
  inside : Bytes.t;
  count : int array;
  mutable size : int;
  mutable boundary : int;
}

let evaluator snap =
  let n = Snapshot.n snap in
  { snap; inside = Bytes.make n '\000'; count = Array.make n 0; size = 0; boundary = 0 }

let add ev u =
  Bytes.set ev.inside u '\001';
  ev.size <- ev.size + 1;
  if ev.count.(u) > 0 then ev.boundary <- ev.boundary - 1;
  for k = 0 to Snapshot.degree ev.snap u - 1 do
    let w = Snapshot.neighbor ev.snap u k in
    let c = ev.count.(w) in
    ev.count.(w) <- c + 1;
    if c = 0 && Bytes.get ev.inside w = '\000' then ev.boundary <- ev.boundary + 1
  done

(* [Snapshot.expansion] of S: the same division of the same ints. *)
let score ev = float_of_int ev.boundary /. float_of_int ev.size

(* Empty S, whose members are [order.(0 .. len - 1)]. *)
let clear ev order len =
  for i = 0 to len - 1 do
    let u = order.(i) in
    Bytes.set ev.inside u '\000';
    for k = 0 to Snapshot.degree ev.snap u - 1 do
      ev.count.(Snapshot.neighbor ev.snap u k) <- 0
    done
  done;
  ev.size <- 0;
  ev.boundary <- 0

let prefix_boundaries snap order =
  let ev = evaluator snap in
  let out = Array.make (Array.length order) 0 in
  for i = 0 to Array.length order - 1 do
    add ev order.(i);
    out.(i) <- ev.boundary
  done;
  out

(* Score the prefixes of [order] of sizes [cuts.(0 .. k - 1)] (ascending,
   at most [Array.length order]) into [out], then empty S. *)
let prefix_scores ev order cuts k out =
  let added = ref 0 in
  for j = 0 to k - 1 do
    while !added < cuts.(j) do
      add ev order.(!added);
      incr added
    done;
    out.(j) <- score ev
  done;
  clear ev order !added

(* Accumulator over candidates: the best witness and the minimum per
   family. *)
type acc = {
  min_size : int;
  max_size : int;
  mutable best : witness;
  families : (string, float) Hashtbl.t;
  mutable tested : int;
}

let new_acc ~min_size ~max_size =
  { min_size; max_size; best = { family = "none"; size = 0; expansion = infinity };
    families = Hashtbl.create 16; tested = 0 }

let in_range acc size = size >= acc.min_size && size <= acc.max_size && size > 0

let record acc family size e =
  if in_range acc size then begin
    acc.tested <- acc.tested + 1;
    let prev = Option.value ~default:infinity (Hashtbl.find_opt acc.families family) in
    if e < prev then Hashtbl.replace acc.families family e;
    if e < acc.best.expansion then acc.best <- { family; size; expansion = e }
  end

(* A candidate given as its first [len] vertices in [set]. *)
let consider acc ev family set len =
  if in_range acc len then begin
    for i = 0 to len - 1 do
      add ev set.(i)
    done;
    record acc family len (score ev);
    clear ev set len
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

(* Sweep cuts are the prefixes of sizes 2, 3, 4, 6, 9, ... up to half the
   swept component. *)
let sweep_ladder m =
  let sizes = ref [] in
  let size = ref 2 in
  while !size <= m / 2 do
    sizes := !size :: !sizes;
    size := max (!size + 1) (!size * 3 / 2)
  done;
  Array.of_list (List.rev !sizes)

(* Vertices, fewest neighbours first. *)
let by_degree snap =
  let order = Array.init (Snapshot.n snap) Fun.id in
  Array.sort (fun a b -> Int.compare (Snapshot.degree snap a) (Snapshot.degree snap b)) order;
  order

(* Unions of the components, smallest first (ties by label), skipping
   the largest: after each component that keeps the union within
   [max_size] the union is one candidate.  [buf] receives the members. *)
let component_unions acc ev buf =
  let snap = ev.snap in
  let label, k = Snapshot.components snap in
  if k > 1 then begin
    let n = Snapshot.n snap in
    let start = Array.make (k + 1) 0 in
    Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) label;
    let comps = Array.init k Fun.id in
    Array.stable_sort (fun a b -> Int.compare start.(a + 1) start.(b + 1)) comps;
    for c = 1 to k do
      start.(c) <- start.(c) + start.(c - 1)
    done;
    (* [members] lists each component's vertices at [start.(c) ..]. *)
    let members = Array.make n 0 and fill = Array.sub start 0 k in
    for v = 0 to n - 1 do
      members.(fill.(label.(v))) <- v;
      fill.(label.(v)) <- fill.(label.(v)) + 1
    done;
    let len = ref 0 and i = ref 0 in
    while !i < k - 1 && !len + (start.(comps.(!i) + 1) - start.(comps.(!i))) <= acc.max_size do
      let c = comps.(!i) in
      for p = start.(c) to start.(c + 1) - 1 do
        buf.(!len) <- members.(p);
        add ev members.(p);
        incr len
      done;
      record acc "component-union" !len (score ev);
      incr i
    done;
    clear ev buf !len
  end

(* Balls B(seed, r) for r = 0, 1, ... while they hold at most [max_size]
   vertices.  [queue] is the BFS queue, layer by layer, so each ball is
   one of its prefixes; [seen] marks queued vertices. *)
let bfs_balls acc ev queue seen seed =
  let snap = ev.snap in
  queue.(0) <- seed;
  Bytes.set seen seed '\001';
  let lo = ref 0 and tail = ref 1 in
  while !lo < !tail && !tail <= acc.max_size do
    let hi = !tail in
    for i = !lo to hi - 1 do
      add ev queue.(i)
    done;
    record acc "bfs-ball" hi (score ev);
    for i = !lo to hi - 1 do
      let u = queue.(i) in
      for k = 0 to Snapshot.degree snap u - 1 do
        let w = Snapshot.neighbor snap u k in
        if Bytes.get seen w = '\000' then begin
          Bytes.set seen w '\001';
          queue.(!tail) <- w;
          incr tail
        end
      done
    done;
    lo := hi
  done;
  clear ev queue !lo;
  for i = 0 to !tail - 1 do
    Bytes.set seen queue.(i) '\000'
  done

(* [order.(i) <- i] (oldest first) or [n - 1 - i] (youngest first):
   index order is age order. *)
let fill_age order ~youngest =
  let n = Array.length order in
  for i = 0 to n - 1 do
    order.(i) <- (if youngest then n - 1 - i else i)
  done

let probe ~rng ?(min_size = 1) ?max_size ?(samples_per_size = 8) ?sweep_order snap =
  let n = Snapshot.n snap in
  let max_size = Option.value ~default:(n / 2) max_size in
  let acc = new_acc ~min_size ~max_size in
  let ev = evaluator snap in
  let buf = Array.make n 0 in
  let sizes = size_ladder ~min_size ~max_size in
  (* The ladder sizes a prefix of n vertices can have, and a score row
     per ordered family. *)
  let ladder = Array.of_list (List.filter (fun s -> s <= n) sizes) in
  let k = Array.length ladder in
  let oldest = Array.make k 0. and youngest = Array.make k 0. and lowest = Array.make k 0. in
  (* Singletons: exactly the per-vertex degrees. *)
  if min_size <= 1 then
    for v = 0 to n - 1 do
      buf.(0) <- v;
      consider acc ev "singleton" buf 1
    done;
  (* Small components and their unions: expansion exactly 0. *)
  component_unions acc ev buf;
  (* BFS balls from random seeds and from the lowest-degree seeds. *)
  let degree_order = by_degree snap in
  let seeds =
    let random = Array.to_list (Prng.sample_without_replacement rng (min 12 n) n) in
    let low = Array.to_list (Array.sub degree_order 0 (min 6 n)) in
    List.sort_uniq Int.compare (random @ low)
  in
  let seen = Bytes.make n '\000' in
  List.iter (bfs_balls acc ev buf seen) seeds;
  (* Age prefixes, oldest and youngest of each size in turn: the paper's
     worst cases live among the oldest nodes. *)
  fill_age buf ~youngest:false;
  prefix_scores ev buf ladder k oldest;
  fill_age buf ~youngest:true;
  prefix_scores ev buf ladder k youngest;
  for j = 0 to k - 1 do
    record acc "age-prefix" ladder.(j) oldest.(j);
    record acc "age-prefix" ladder.(j) youngest.(j)
  done;
  (* Lowest-degree-first prefixes. *)
  prefix_scores ev degree_order ladder k lowest;
  for j = 0 to k - 1 do
    record acc "degree-prefix" ladder.(j) lowest.(j)
  done;
  (* Uniform random sets. *)
  Array.iter
    (fun s ->
      for _ = 1 to samples_per_size do
        consider acc ev "random" (Prng.sample_without_replacement rng s n) s
      done)
    ladder;
  (* Spectral sweep cuts. *)
  let order = match sweep_order with Some o -> o | None -> Spectral.sweep_order snap in
  let cuts = sweep_ladder (Array.length order) in
  let scores = Array.make (Array.length cuts) 0. in
  prefix_scores ev order cuts (Array.length cuts) scores;
  Array.iteri (fun j e -> record acc "sweep-cut" cuts.(j) e) scores;
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
  let ev = evaluator snap in
  (* Every requested size a set can have, ascending and distinct, with
     the three nested families scored at each. *)
  let ladder =
    List.filter (fun s -> s >= 1 && s <= n) (Array.to_list sizes)
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  let k = Array.length ladder in
  let oldest = Array.make k 0. and youngest = Array.make k 0. and lowest = Array.make k 0. in
  let buf = Array.make n 0 in
  fill_age buf ~youngest:false;
  prefix_scores ev buf ladder k oldest;
  fill_age buf ~youngest:true;
  prefix_scores ev buf ladder k youngest;
  prefix_scores ev (by_degree snap) ladder k lowest;
  Array.map
    (fun s ->
      if s < 1 || s > n then (s, nan)
      else begin
        let j = ref 0 in
        while ladder.(!j) <> s do
          incr j
        done;
        let best = ref oldest.(!j) in
        if youngest.(!j) < !best then best := youngest.(!j);
        if lowest.(!j) < !best then best := lowest.(!j);
        for _ = 1 to 8 do
          let set = Prng.sample_without_replacement rng s n in
          for i = 0 to s - 1 do
            add ev set.(i)
          done;
          if score ev < !best then best := score ev;
          clear ev set s
        done;
        (s, !best)
      end)
    sizes
