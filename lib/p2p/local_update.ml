module Dyngraph = Churnet_graph.Dyngraph
module Prng = Churnet_util.Prng
module Intvec = Churnet_util.Intvec

type t = {
  d : int;
  rng : Prng.t;
  graph : Dyngraph.t;
  (* Scratch, reused every round so a step allocates nothing. *)
  orphans : Intvec.t; (* the dying node's in-neighbours, ascending *)
  inherited : Intvec.t; (* its out-targets, in slot order *)
  adopt : Intvec.t; (* the newborn's targets, in donor-draw order *)
  donors : Intvec.t; (* donors that gave up a link, in draw order *)
  targets : int array; (* [adopt] reversed, padded with -1 *)
}

(* Birth by takeover: each donor picks one of its out-links, disconnects
   it, redirects it to the newborn; the newborn adopts the donor's old
   target.  Out-degrees are conserved exactly (the donor keeps d links,
   the newborn ends with up to d).  Deletion hands the dying node's
   out-targets over to its orphaned in-neighbors. *)

(* A uniform alive node other than [self] (up to 16 tries), or -1. *)
let random_alive_other t self =
  let g = t.graph in
  if Dyngraph.alive_count g < 2 then -1
  else begin
    let cand = ref (-1) and tries = ref 16 in
    while !cand < 0 && !tries > 0 do
      decr tries;
      let c = Dyngraph.random_alive g in
      if c <> self then cand := c
    done;
    !cand
  end

(* The target of the [k]-th filled out-slot of [id] (0-based, slot order):
   the [k]-th element of [Dyngraph.out_targets]. *)
let nth_target g id k =
  let slot = ref 0 and seen = ref 0 and found = ref (-1) in
  while !found < 0 do
    let v = Dyngraph.out_slot g id !slot in
    if v >= 0 then begin
      if !seen = k then found := v;
      incr seen
    end;
    incr slot
  done;
  !found

let policy t ~dying ~birth =
  let g = t.graph in
  (* Death first (streaming schedule), with edge takeover. *)
  if dying >= 0 then begin
    Intvec.clear t.inherited;
    for i = 0 to t.d - 1 do
      let v = Dyngraph.out_slot g dying i in
      if v >= 0 then Intvec.push t.inherited v
    done;
    Dyngraph.in_neighbors_into g dying t.orphans;
    Dyngraph.kill g dying;
    (* Pair orphaned in-neighbors with the dead node's former targets;
       orphans left over once the targets run out re-sample uniformly. *)
    let paired = Intvec.length t.inherited in
    for i = 0 to Intvec.length t.orphans - 1 do
      let w = Intvec.get t.orphans i in
      if i < paired then begin
        let t0 = Intvec.get t.inherited i in
        if Dyngraph.is_alive g w && Dyngraph.is_alive g t0 && w <> t0 then
          ignore (Dyngraph.connect g ~src:w ~dst:t0)
      end
      else begin
        let cand = random_alive_other t w in
        if cand >= 0 && Dyngraph.is_alive g w then ignore (Dyngraph.connect g ~src:w ~dst:cand)
      end
    done
  end;
  (* Birth by takeover. *)
  let newborn_id = Dyngraph.peek_next_id g in
  let alive = Dyngraph.alive_count g in
  Intvec.clear t.adopt;
  Intvec.clear t.donors;
  if alive > 0 then
    for _ = 1 to t.d do
      let donor = Dyngraph.random_alive g in
      let k = Dyngraph.out_degree g donor in
      if k = 0 then Intvec.push t.adopt donor (* donor has nothing to give: link to it *)
      else begin
        let target = nth_target g donor (Prng.int t.rng k) in
        if Dyngraph.disconnect g ~src:donor ~dst:target then begin
          Intvec.push t.adopt target;
          Intvec.push t.donors donor
        end
      end
    done;
  (* The newborn's slots take the adopted targets latest draw first. *)
  let m = Intvec.length t.adopt in
  for i = 0 to t.d - 1 do
    t.targets.(i) <- (if i < m then Intvec.get t.adopt (m - 1 - i) else -1)
  done;
  let id = Dyngraph.add_node_with_targets g ~birth ~targets:t.targets in
  assert (id = newborn_id);
  for i = Intvec.length t.donors - 1 downto 0 do
    let donor = Intvec.get t.donors i in
    if Dyngraph.is_alive g donor && donor <> id then ignore (Dyngraph.connect g ~src:donor ~dst:id)
  done;
  id

let create ~rng ~n ~d () =
  if n < 2 then invalid_arg "Local_update.create: n must be >= 2";
  let graph = Dyngraph.create ~rng:(Prng.split rng) ~d ~regenerate:false () in
  let t =
    {
      d;
      rng;
      graph;
      orphans = Intvec.create ();
      inherited = Intvec.create ();
      adopt = Intvec.create ();
      donors = Intvec.create ();
      targets = Array.make d (-1);
    }
  in
  Churnet_core.Streaming_model.of_policy ~n graph (fun ~dying ~birth -> policy t ~dying ~birth)
