module Bitset = Churnet_util.Bitset

(* CSR (compressed sparse row) layout: row i of the adjacency is
   adj.[offsets.(i) .. offsets.(i+1)), sorted ascending and distinct.
   Two flat arrays replace the array-of-arrays + id hashtable of the
   original representation: neighbor scans are cache-linear, degree is a
   subtraction, and [index_of_id] is a branch on the dense-id fast path
   (a contiguous id range, the common case under FIFO churn) or a binary
   search otherwise. *)
type t = {
  ids : int array;
  births : int array;
  offsets : int array; (* length n + 1; offsets.(0) = 0 *)
  adj : int array; (* flat rows, each sorted + distinct *)
  out_deg : int array;
  dense : bool; (* ids.(i) = ids.(0) + i for all i *)
}

let ids_dense ids =
  let n = Array.length ids in
  n = 0 || ids.(n - 1) - ids.(0) = n - 1

let of_csr ~ids ~births ~offsets ~adj ~out_deg =
  let n = Array.length ids in
  if Array.length births <> n || Array.length out_deg <> n || Array.length offsets <> n + 1
  then invalid_arg "Snapshot.of_csr: length mismatch";
  if offsets.(0) <> 0 || offsets.(n) <> Array.length adj then
    invalid_arg "Snapshot.of_csr: offsets do not cover adj";
  { ids; births; offsets; adj; out_deg; dense = ids_dense ids }

let make ~ids ~births ~adj ~out_deg =
  let n = Array.length ids in
  if Array.length births <> n || Array.length adj <> n || Array.length out_deg <> n then
    invalid_arg "Snapshot.make: length mismatch";
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offsets.(i + 1) <- offsets.(i) + Array.length adj.(i)
  done;
  let flat = Array.make offsets.(n) 0 in
  Array.iteri (fun i row -> Array.blit row 0 flat offsets.(i) (Array.length row)) adj;
  { ids; births; offsets; adj = flat; out_deg; dense = ids_dense ids }

let of_edges ~n edges =
  let tmp = Array.make n [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Snapshot.of_edges";
      if u <> v then begin
        tmp.(u) <- v :: tmp.(u);
        tmp.(v) <- u :: tmp.(v)
      end)
    edges;
  let adj = Array.map (fun l -> Array.of_list (List.sort_uniq Int.compare l)) tmp in
  make ~ids:(Array.init n Fun.id) ~births:(Array.init n Fun.id) ~adj
    ~out_deg:(Array.make n 0)

let n t = Array.length t.ids
let ids t = Array.copy t.ids
let id_of_index t i = t.ids.(i)

let index_of_id t id =
  let nn = Array.length t.ids in
  if nn = 0 then None
  else if t.dense then begin
    let i = id - t.ids.(0) in
    if i >= 0 && i < nn then Some i else None
  end
  else begin
    let lo = ref 0 and hi = ref (nn - 1) and found = ref (-1) in
    while !lo <= !hi && !found < 0 do
      let mid = (!lo + !hi) / 2 in
      let v = t.ids.(mid) in
      if v = id then found := mid else if v < id then lo := mid + 1 else hi := mid - 1
    done;
    if !found < 0 then None else Some !found
  end

let birth_of_index t i = t.births.(i)
let degree t i = t.offsets.(i + 1) - t.offsets.(i)
let neighbors t i = Array.sub t.adj t.offsets.(i) (degree t i)

let iter_neighbors t i f =
  for k = t.offsets.(i) to t.offsets.(i + 1) - 1 do
    f t.adj.(k)
  done

let neighbor t i k =
  if k < 0 || k >= degree t i then invalid_arg "Snapshot.neighbor: rank out of range";
  t.adj.(t.offsets.(i) + k)

let mem_edge t i j =
  let lo = ref t.offsets.(i) and hi = ref (t.offsets.(i + 1) - 1) in
  let found = ref false in
  while !lo <= !hi && not !found do
    let mid = (!lo + !hi) / 2 in
    let v = t.adj.(mid) in
    if v = j then found := true else if v < j then lo := mid + 1 else hi := mid - 1
  done;
  !found

let common_neighbors t i j =
  let ai = ref t.offsets.(i) and bi = ref t.offsets.(j) in
  let ae = t.offsets.(i + 1) and be = t.offsets.(j + 1) in
  let c = ref 0 in
  while !ai < ae && !bi < be do
    let x = t.adj.(!ai) and y = t.adj.(!bi) in
    if x = y then begin
      incr c;
      incr ai;
      incr bi
    end
    else if x < y then incr ai
    else incr bi
  done;
  !c

let out_degree t i = t.out_deg.(i)
let edge_count t = Array.length t.adj / 2

let max_degree t =
  let best = ref 0 in
  for i = 0 to n t - 1 do
    if degree t i > !best then best := degree t i
  done;
  !best

let mean_degree t =
  let nn = n t in
  if nn = 0 then nan else float_of_int (Array.length t.adj) /. float_of_int nn

let isolated t =
  let acc = ref [] in
  for i = n t - 1 downto 0 do
    if degree t i = 0 then acc := i :: !acc
  done;
  !acc

let bfs t src =
  let nn = n t in
  let dist = Array.make nn (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    iter_neighbors t u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
  done;
  dist

let components t =
  let nn = n t in
  let label = Array.make nn (-1) in
  let next = ref 0 in
  let queue = Queue.create () in
  for s = 0 to nn - 1 do
    if label.(s) < 0 then begin
      let c = !next in
      incr next;
      label.(s) <- c;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        iter_neighbors t u (fun v ->
            if label.(v) < 0 then begin
              label.(v) <- c;
              Queue.add v queue
            end)
      done
    end
  done;
  (label, !next)

let largest_component t =
  let label, k = components t in
  if k = 0 then 0
  else begin
    let sizes = Array.make k 0 in
    Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) label;
    Array.fold_left max 0 sizes
  end

let boundary t set =
  let acc = ref [] in
  let seen = Bitset.create (n t) in
  Bitset.iter
    (fun u ->
      iter_neighbors t u (fun v ->
          if (not (Bitset.mem set v)) && not (Bitset.mem seen v) then begin
            Bitset.add seen v;
            acc := v :: !acc
          end))
    set;
  Array.of_list !acc

let boundary_size ?scratch t set =
  let seen =
    match scratch with
    | Some b ->
        if Bitset.capacity b < n t then
          invalid_arg "Snapshot.boundary_size: scratch capacity below n";
        Bitset.clear b;
        b
    | None -> Bitset.create (n t)
  in
  let count = ref 0 in
  let visit v =
    if (not (Bitset.mem set v)) && not (Bitset.mem seen v) then begin
      Bitset.add seen v;
      incr count
    end
  in
  Bitset.iter (fun u -> iter_neighbors t u visit) set;
  !count

let expansion ?scratch t set =
  let s = Bitset.cardinal set in
  if s = 0 then nan
  else float_of_int (boundary_size ?scratch t set) /. float_of_int s

let set_of_indices t indices =
  let set = Bitset.create (n t) in
  Array.iter (fun i -> Bitset.add set i) indices;
  set

let degree_histogram t =
  let h = Array.make (max_degree t + 1) 0 in
  for i = 0 to n t - 1 do
    h.(degree t i) <- h.(degree t i) + 1
  done;
  h

let to_dot ?(name = "snapshot") ?(highlight = []) t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  Buffer.add_string buf "  node [shape=circle, fontsize=8];\n";
  let hl = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace hl i ()) highlight;
  Array.iteri
    (fun i id ->
      if Hashtbl.mem hl i then
        Buffer.add_string buf
          (Printf.sprintf "  n%d [label=\"%d\", style=filled, fillcolor=red];\n" i id)
      else Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%d\"];\n" i id))
    t.ids;
  for u = 0 to n t - 1 do
    iter_neighbors t u (fun v ->
        if v > u then Buffer.add_string buf (Printf.sprintf "  n%d -- n%d;\n" u v))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
