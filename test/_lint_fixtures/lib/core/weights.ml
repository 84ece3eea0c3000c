(* hot-path-alloc: the two-parameter helper the churn runner applies
   partially. *)
let scale k x = k * x
