module Prng = Churnet_util.Prng

(* Count triangles and wedges.  CSR rows are sorted, so common neighbors
   are found by merge directly on the flat adjacency; each triangle is
   counted once per corner and divided out at the end. *)
let triangles_and_wedges snap =
  let n = Snapshot.n snap in
  let triangles = ref 0 and wedges = ref 0 in
  for v = 0 to n - 1 do
    let deg = Snapshot.degree snap v in
    wedges := !wedges + (deg * (deg - 1) / 2);
    Snapshot.iter_neighbors snap v (fun w ->
        if w > v then triangles := !triangles + Snapshot.common_neighbors snap v w)
  done;
  (* Each triangle contributes one common-neighbor hit per edge (v < w),
     i.e. 3 hits total. *)
  (!triangles / 3, !wedges)

let global_clustering snap =
  let tri, wedges = triangles_and_wedges snap in
  if wedges = 0 then nan else 3. *. float_of_int tri /. float_of_int wedges

let mean_local_clustering snap =
  let n = Snapshot.n snap in
  let acc = ref 0. and count = ref 0 in
  for v = 0 to n - 1 do
    let deg = Snapshot.degree snap v in
    if deg >= 2 then begin
      let links = ref 0 in
      for i = 0 to deg - 1 do
        let a = Snapshot.neighbor snap v i in
        for j = i + 1 to deg - 1 do
          if Snapshot.mem_edge snap a (Snapshot.neighbor snap v j) then incr links
        done
      done;
      acc := !acc +. (2. *. float_of_int !links /. float_of_int (deg * (deg - 1)));
      incr count
    end
  done;
  if !count = 0 then nan else !acc /. float_of_int !count

let degree_assortativity snap =
  let pairs = ref [] in
  let n = Snapshot.n snap in
  for v = 0 to n - 1 do
    Snapshot.iter_neighbors snap v (fun w ->
        if w > v then begin
          let dv = float_of_int (Snapshot.degree snap v) in
          let dw = float_of_int (Snapshot.degree snap w) in
          (* An undirected edge contributes both orientations to Newman's
             correlation. *)
          pairs := (dv, dw) :: (dw, dv) :: !pairs
        end)
  done;
  Churnet_util.Stats.pearson (Array.of_list !pairs)

let sample_bfs ~rng ?(sources = 16) snap =
  let n = Snapshot.n snap in
  let sources = min sources n in
  let picks =
    if sources = n then Array.init n Fun.id
    else Prng.sample_without_replacement rng sources n
  in
  Array.map (fun s -> Snapshot.bfs snap s) picks

let mean_distance ~rng ?sources snap =
  let runs = sample_bfs ~rng ?sources snap in
  let acc = ref 0. and count = ref 0 in
  for r = 0 to Array.length runs - 1 do
    let dist = runs.(r) in
    for v = 0 to Array.length dist - 1 do
      let d = dist.(v) in
      if d > 0 then begin
        acc := !acc +. float_of_int d;
        incr count
      end
    done
  done;
  if !count = 0 then nan else !acc /. float_of_int !count

let diameter_estimate ~rng ?sources snap =
  let runs = sample_bfs ~rng ?sources snap in
  Array.fold_left
    (fun best dist -> Array.fold_left (fun b d -> if d > b then d else b) best dist)
    0 runs

let degree_gini snap =
  let n = Snapshot.n snap in
  if n = 0 then nan
  else begin
    let degs = Array.init n (fun v -> float_of_int (Snapshot.degree snap v)) in
    Array.sort Float.compare degs;
    let total = ref 0. in
    for i = 0 to n - 1 do
      total := !total +. degs.(i)
    done;
    let total = !total in
    if total <= 0. then 0.
    else begin
      let weighted = ref 0. in
      for i = 0 to n - 1 do
        weighted := !weighted +. (float_of_int (i + 1) *. degs.(i))
      done;
      let fn = float_of_int n in
      ((2. *. !weighted) /. (fn *. total)) -. ((fn +. 1.) /. fn)
    end
  end

type fingerprint = {
  nodes : int;
  edges : int;
  mean_degree : float;
  max_degree : int;
  degree_gini : float;
  global_clustering : float;
  assortativity : float;
  mean_distance : float;
  diameter_lb : int;
  giant_fraction : float;
}

let fingerprint ~rng snap =
  {
    nodes = Snapshot.n snap;
    edges = Snapshot.edge_count snap;
    mean_degree = Snapshot.mean_degree snap;
    max_degree = Snapshot.max_degree snap;
    degree_gini = degree_gini snap;
    global_clustering = global_clustering snap;
    assortativity = degree_assortativity snap;
    mean_distance = mean_distance ~rng snap;
    diameter_lb = diameter_estimate ~rng snap;
    giant_fraction =
      (if Snapshot.n snap = 0 then nan
       else float_of_int (Snapshot.largest_component snap) /. float_of_int (Snapshot.n snap));
  }
