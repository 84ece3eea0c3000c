(* fixture interface: intentionally empty *)
