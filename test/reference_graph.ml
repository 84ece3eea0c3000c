(* An independent, deliberately naive re-implementation of the dynamic
   graph, with or without regeneration, used as a differential-testing
   oracle for Dyngraph (test_differential.ml).

   To make runs bit-for-bit comparable it consumes randomness exactly the
   way Dyngraph does: a dense alive array with append-on-birth and
   swap-remove-on-death, and per-slot rejection sampling
   (Prng.int rng alive_len, retry while the sample equals the newborn).
   A death regenerates one lost edge at a time: in-neighbours in
   ascending id order, one [Prng.int] per draw, a draw that names the
   in-neighbour itself redrawn.  Everything else — edge bookkeeping in particular — is implemented
   differently (a flat list of directed edges, no slots, no in-edge
   multisets), so agreement between the two implementations exercises the
   part of Dyngraph most likely to harbour bugs. *)

module Prng = Churnet_util.Prng

type t = {
  d : int;
  regenerate : bool;
  rng : Prng.t;
  mutable alive : int array;
  mutable alive_len : int;
  mutable edges : (int * int) list; (* directed src -> dst, multiset *)
  births : (int, int) Hashtbl.t;
  mutable next_id : int;
  mutable self_hits : int; (* regeneration draws that named their own node *)
}

let create ?(regenerate = false) ~rng ~d () =
  {
    d;
    regenerate;
    rng;
    alive = Array.make 16 (-1);
    alive_len = 0;
    edges = [];
    births = Hashtbl.create 64;
    next_id = 0;
    self_hits = 0;
  }

let alive_count t = t.alive_len

let is_alive t id =
  let found = ref false in
  for i = 0 to t.alive_len - 1 do
    if t.alive.(i) = id then found := true
  done;
  !found

let push t id =
  if t.alive_len = Array.length t.alive then begin
    let bigger = Array.make (2 * t.alive_len) (-1) in
    Array.blit t.alive 0 bigger 0 t.alive_len;
    t.alive <- bigger
  end;
  t.alive.(t.alive_len) <- id;
  t.alive_len <- t.alive_len + 1

let add_node t ~birth =
  let id = t.next_id in
  t.next_id <- id + 1;
  (* Mirror Dyngraph's sampling *before* the newborn joins the array. *)
  for _ = 1 to t.d do
    if t.alive_len > 0 && not (t.alive_len = 1 && t.alive.(0) = id) then begin
      let rec go () =
        let cand = t.alive.(Prng.int t.rng t.alive_len) in
        if cand = id then go () else cand
      in
      let target = go () in
      t.edges <- (id, target) :: t.edges
    end
  done;
  Hashtbl.replace t.births id birth;
  push t id;
  id

(* Protocol-style edits, as [Dyngraph] defines them: a birth takes at
   most [d] of the given targets, skipping dead and self ones (no
   draws); [connect] adds an edge when [src] has fewer than [d]; and
   [disconnect] removes one occurrence of an edge. *)
let out_count t src = List.length (List.filter (fun (a, _) -> a = src) t.edges)

let add_node_with_targets t ~birth ~targets =
  let id = t.next_id in
  t.next_id <- id + 1;
  Array.iter
    (fun dst ->
      if out_count t id < t.d && dst <> id && is_alive t dst then
        t.edges <- (id, dst) :: t.edges)
    targets;
  Hashtbl.replace t.births id birth;
  push t id;
  id

let connect t ~src ~dst =
  if src <> dst && is_alive t src && is_alive t dst && out_count t src < t.d then
    t.edges <- (src, dst) :: t.edges

let disconnect t ~src ~dst =
  let rec drop = function
    | [] -> []
    | e :: rest -> if e = (src, dst) then rest else e :: drop rest
  in
  t.edges <- drop t.edges

let kill t id =
  (* swap-remove, same as Dyngraph *)
  let pos = ref (-1) in
  for i = 0 to t.alive_len - 1 do
    if t.alive.(i) = id then pos := i
  done;
  if !pos < 0 then invalid_arg "Reference_graph.kill: not alive";
  let last = t.alive_len - 1 in
  t.alive.(!pos) <- t.alive.(last);
  t.alive_len <- last;
  Hashtbl.remove t.births id;
  let lost = List.filter_map (fun (a, b) -> if b = id then Some a else None) t.edges in
  t.edges <- List.filter (fun (a, b) -> a <> id && b <> id) t.edges;
  if t.regenerate then
    List.iter
      (fun src ->
        let other = ref false in
        for i = 0 to t.alive_len - 1 do
          if t.alive.(i) <> src then other := true
        done;
        if !other then begin
          let rec go () =
            let cand = t.alive.(Prng.int t.rng t.alive_len) in
            if cand = src then begin
              t.self_hits <- t.self_hits + 1;
              go ()
            end
            else cand
          in
          let dst = go () in
          t.edges <- (src, dst) :: t.edges
        end)
      (List.sort Int.compare lost)

(* Distinct undirected neighbor sets per alive node, as sorted arrays —
   comparable to Snapshot adjacency. *)
let snapshot t =
  let ids = Array.sub t.alive 0 t.alive_len in
  Array.sort Int.compare ids;
  let index_of = Hashtbl.create 64 in
  Array.iteri (fun i id -> Hashtbl.replace index_of id i) ids;
  let n = Array.length ids in
  let sets = Array.make n [] in
  List.iter
    (fun (a, b) ->
      match (Hashtbl.find_opt index_of a, Hashtbl.find_opt index_of b) with
      | Some ia, Some ib ->
          sets.(ia) <- ib :: sets.(ia);
          sets.(ib) <- ia :: sets.(ib)
      | _ -> ())
    t.edges;
  let adj = Array.map (fun l -> Array.of_list (List.sort_uniq Int.compare l)) sets in
  let births = Array.map (fun id -> Hashtbl.find t.births id) ids in
  Churnet_graph.Snapshot.make ~ids ~births ~adj ~out_deg:(Array.make n 0)
