type t = {
  population : int;
  isolated : int;
  max_degree : int;
  mean_degree : float;
}

let collect g =
  let population = Dyngraph.alive_count g in
  let max_degree = ref 0 in
  let degree_sum = ref 0 in
  let isolated = ref 0 in
  Dyngraph.iter_degrees g (fun deg ->
      if deg > !max_degree then max_degree := deg;
      degree_sum := !degree_sum + deg;
      if deg = 0 then incr isolated);
  {
    population;
    isolated = !isolated;
    max_degree = !max_degree;
    (* [Snapshot.mean_degree] divides the CSR adjacency length — the sum
       of distinct degrees — by n; same two integers here. *)
    mean_degree =
      (if population = 0 then nan
       else float_of_int !degree_sum /. float_of_int population);
  }
