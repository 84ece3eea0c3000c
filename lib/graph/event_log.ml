type event =
  | Birth of { id : int; birth : int; targets : int array }
  | Edge of { src : int; dst : int }
  | Death of { id : int }

type t = {
  mutable events : event list;
  mutable length : int;
  mutable flush_pending : unit -> unit;
}

let create () = { events = []; length = 0; flush_pending = (fun () -> ()) }
let length t = t.length

let record t e =
  t.events <- e :: t.events;
  t.length <- t.length + 1

let events t =
  t.flush_pending ();
  Array.of_list (List.rev t.events)

(* The birth hook fires before the newborn's edge hooks; buffer the birth
   and collect its initial edges until the next non-edge-of-newborn event. *)
let attach t graph =
  let current_birth : (int * int * int list ref) option ref = ref None in
  let flush () =
    match !current_birth with
    | None -> ()
    | Some (id, birth, targets) ->
        record t (Birth { id; birth; targets = Array.of_list (List.rev !targets) });
        current_birth := None
  in
  Dyngraph.set_birth_hook graph
    (Some
       (fun id ~birth ->
         flush ();
         current_birth := Some (id, birth, ref [])));
  Dyngraph.set_edge_hook graph
    (Some
       (fun ~src ~dst ->
         match !current_birth with
         | Some (id, _, targets) when id = src -> targets := dst :: !targets
         | _ ->
             flush ();
             record t (Edge { src; dst })));
  Dyngraph.set_death_hook graph
    (Some
       (fun id ->
         flush ();
         record t (Death { id })));
  t.flush_pending <- flush

let detach t graph =
  t.flush_pending ();
  t.flush_pending <- (fun () -> ());
  Dyngraph.set_birth_hook graph None;
  Dyngraph.set_edge_hook graph None;
  Dyngraph.set_death_hook graph None

(* Replay into a plain adjacency structure. *)
module Int_set = Set.Make (Int)

let replay ?upto t =
  let evts = events t in
  let upto = match upto with Some k -> min k (Array.length evts) | None -> Array.length evts in
  let alive : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  (* id -> birth *)
  let adj : (int, Int_set.t) Hashtbl.t = Hashtbl.create 1024 in
  let adj_of id = Option.value ~default:Int_set.empty (Hashtbl.find_opt adj id) in
  let add_edge u v =
    if u <> v && Hashtbl.mem alive u && Hashtbl.mem alive v then begin
      Hashtbl.replace adj u (Int_set.add v (adj_of u));
      Hashtbl.replace adj v (Int_set.add u (adj_of v))
    end
  in
  for i = 0 to upto - 1 do
    match evts.(i) with
    | Birth { id; birth; targets } ->
        Hashtbl.replace alive id birth;
        Array.iter (fun v -> add_edge id v) targets
    | Edge { src; dst } -> add_edge src dst
    | Death { id } ->
        Int_set.iter
          (fun v -> Hashtbl.replace adj v (Int_set.remove id (adj_of v)))
          (adj_of id);
        Hashtbl.remove adj id;
        Hashtbl.remove alive id
  done;
  (* lint: allow no-hashtbl-order — collected ids are sorted on the next
     line, so table order cannot reach the snapshot. *)
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) alive [] in
  let ids = Array.of_list (List.sort Int.compare ids) in
  let index_of = Hashtbl.create (2 * Array.length ids) in
  Array.iteri (fun i id -> Hashtbl.replace index_of id i) ids;
  let births = Array.map (fun id -> Hashtbl.find alive id) ids in
  let adj_arrays =
    Array.map
      (fun id ->
        let arr =
          Int_set.elements (adj_of id)
          |> List.filter_map (fun v -> Hashtbl.find_opt index_of v)
          |> Array.of_list
        in
        Array.sort Int.compare arr;
        arr)
      ids
  in
  Snapshot.make ~ids ~births ~adj:adj_arrays ~out_deg:(Array.make (Array.length ids) 0)

let population_series t =
  let evts = events t in
  let pop = ref 0 in
  Array.map
    (fun e ->
      (match e with
      | Birth _ -> incr pop
      | Death _ -> decr pop
      | Edge _ -> ());
      !pop)
    evts

let to_string t =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun e ->
      (match e with
      | Birth { id; birth; targets } ->
          Buffer.add_string buf
            (Printf.sprintf "B %d %d %s" id birth
               (String.concat "," (Array.to_list (Array.map string_of_int targets))))
      | Edge { src; dst } -> Buffer.add_string buf (Printf.sprintf "E %d %d" src dst)
      | Death { id } -> Buffer.add_string buf (Printf.sprintf "D %d" id));
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

let of_string s =
  let t = create () in
  let error = ref None in
  (* id -> still alive, for every id born so far: a log starts from an
     empty graph, so an id is born at most once and dies only while
     alive. *)
  let born : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let lines = String.split_on_char '\n' s in
  List.iteri
    (fun lineno line ->
      if !error = None && String.trim line <> "" then begin
        let fail () = error := Some (Printf.sprintf "line %d: %S" (lineno + 1) line) in
        let add_birth id birth targets =
          if Hashtbl.mem born id then fail ()
          else begin
            Hashtbl.replace born id true;
            record t (Birth { id; birth; targets })
          end
        in
        match String.split_on_char ' ' (String.trim line) with
        | [ "B"; id; birth; targets ] -> (
            match (int_of_string_opt id, int_of_string_opt birth) with
            | Some id, Some birth -> (
                let parts =
                  if targets = "" then []
                  else String.split_on_char ',' targets
                in
                let parsed = List.map int_of_string_opt parts in
                if List.exists (fun x -> x = None) parsed then fail ()
                else add_birth id birth (Array.of_list (List.map Option.get parsed)))
            | _ -> fail ())
        | [ "B"; id; birth ] -> (
            match (int_of_string_opt id, int_of_string_opt birth) with
            | Some id, Some birth -> add_birth id birth [||]
            | _ -> fail ())
        | [ "E"; src; dst ] -> (
            match (int_of_string_opt src, int_of_string_opt dst) with
            | Some src, Some dst -> record t (Edge { src; dst })
            | _ -> fail ())
        | [ "D"; id ] -> (
            match int_of_string_opt id with
            | Some id when Hashtbl.find_opt born id = Some true ->
                Hashtbl.replace born id false;
                record t (Death { id })
            | _ -> fail ())
        | _ -> fail ()
      end)
    lines;
  match !error with Some e -> Error e | None -> Ok t
