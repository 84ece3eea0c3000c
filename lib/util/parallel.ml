let recommended_domains () = min 8 (Domain.recommended_domain_count ())

let domains_from_env () =
  match Sys.getenv_opt "CHURNET_DOMAINS" with
  | None | Some "" -> recommended_domains ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> d
      | _ ->
          invalid_arg
            (Printf.sprintf "CHURNET_DOMAINS=%S: expected a positive integer" s))

(* A domain's live GC counters see only that domain, so every worker adds
   its words here before it returns. *)
let worker_minor = Atomic.make 0
let worker_major = Atomic.make 0

let words () =
  let _, _, major = Gc.counters () in
  ( Gc.minor_words () +. float (Atomic.get worker_minor),
    major +. float (Atomic.get worker_major) )

let map_with ?domains ~init f xs =
  let n = Array.length xs in
  let domains =
    match domains with Some d -> max 1 d | None -> domains_from_env ()
  in
  (* Checkpoint integration.  Site numbers are allocated per [map] call
     in execution order — even for empty calls, so the numbering never
     depends on input sizes — and unit indices are input positions.
     Both are independent of the domain count, which is what makes a
     journal written at one CHURNET_DOMAINS resumable at any other. *)
  let journal = Checkpoint.active () in
  let site =
    match journal with Some j -> Checkpoint.alloc_site j | None -> -1
  in
  let eval scratch i x =
    match journal with
    | None -> f scratch x
    | Some j -> (
        match Checkpoint.find j ~site ~index:i with
        | Some v -> v
        | None ->
            let v = f scratch x in
            Checkpoint.record j ~site ~index:i v;
            (* Cache hits do not tick: [--crash-at k] counts freshly
               computed units, so kill points in a resumed run line up
               with remaining work, not with restored history. *)
            Checkpoint.crash_tick ();
            v)
  in
  let results =
    if n = 0 then [||]
    else if domains <= 1 || n = 1 then Array.mapi (eval (init ())) xs
    else begin
      let workers = min domains n in
      let results = Array.make n None in
      (* First failure wins: later failures in other domains are dropped, and
         the winning exception is re-raised with its original backtrace. *)
      let failure = Atomic.make None in
      let chunk = (n + workers - 1) / workers in
      let run lo hi () =
        let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
        try
          (* The scratch lives for this worker's share of this call only. *)
          let scratch = init () in
          for i = lo to hi do
            results.(i) <- Some (eval scratch i xs.(i))
          done;
          let _, _, major1 = Gc.counters () in
          ignore (Atomic.fetch_and_add worker_minor (truncate (Gc.minor_words () -. minor0)));
          ignore (Atomic.fetch_and_add worker_major (truncate (major1 -. major0)))
        with exn ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failure None (Some (exn, bt)))
      in
      let handles =
        List.init workers (fun w ->
            let lo = w * chunk in
            let hi = min (n - 1) (((w + 1) * chunk) - 1) in
            if lo > hi then None else Some (Domain.spawn (run lo hi)))
      in
      List.iter (function Some h -> Domain.join h | None -> ()) handles;
      (match Atomic.get failure with
      | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
      | None -> ());
      Array.map (function Some v -> v | None -> assert false) results
    end
  in
  (match journal with Some j -> Checkpoint.flush j | None -> ());
  results

let map ?domains f xs = map_with ?domains ~init:ignore (fun () x -> f x) xs
let init ?domains n f = map ?domains f (Array.init n Fun.id)

let replicate_with ?domains ~init ~rng ~trials f =
  if trials < 0 then invalid_arg "Parallel.replicate: trials must be >= 0";
  (* Pre-split one generator per trial *in trial order* before any domain
     is spawned: the sub-streams — hence the results — are identical
     whatever the domain count, and identical to a serial
     [for _ = 1 to trials do ... (Prng.split rng) ... done] loop. *)
  map_with ?domains ~init f (Array.init trials (fun _ -> Prng.split rng))

let replicate ?domains ~rng ~trials f =
  replicate_with ?domains ~init:ignore ~rng ~trials (fun () r -> f r)
