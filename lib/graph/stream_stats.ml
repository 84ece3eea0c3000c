type t = {
  population : int;
  isolated : int;
  max_degree : int;
  mean_degree : float;
  degree_histogram : int array;
  degree_gini : float;
}

(* Gini over a degree histogram, reproducing [Metrics.degree_gini]
   bitwise: that function sorts the per-node degrees ascending and folds
   them left-to-right, and expanding the histogram in ascending degree
   order replays the exact same sequence of float additions and
   multiplications. *)
let gini_of_histogram ~population hist =
  if population = 0 then nan
  else begin
    let total = ref 0. in
    Array.iteri
      (fun deg c ->
        let d = float_of_int deg in
        for _ = 1 to c do
          total := !total +. d
        done)
      hist;
    if !total <= 0. then 0.
    else begin
      let weighted = ref 0. in
      let rank = ref 0 in
      Array.iteri
        (fun deg c ->
          let d = float_of_int deg in
          for _ = 1 to c do
            weighted := !weighted +. (float_of_int (!rank + 1) *. d);
            incr rank
          done)
        hist;
      let fn = float_of_int population in
      ((2. *. !weighted) /. (fn *. !total)) -. ((fn +. 1.) /. fn)
    end
  end

let collect g =
  let population = Dyngraph.alive_count g in
  let counts = ref (Array.make 8 0) in
  let max_degree = ref 0 in
  let degree_sum = ref 0 in
  let isolated = ref 0 in
  Dyngraph.iter_alive g (fun id ->
      let deg = Dyngraph.degree g id in
      if deg >= Array.length !counts then begin
        let len = ref (Array.length !counts) in
        while deg >= !len do
          len := 2 * !len
        done;
        let bigger = Array.make !len 0 in
        Array.blit !counts 0 bigger 0 (Array.length !counts);
        counts := bigger
      end;
      !counts.(deg) <- !counts.(deg) + 1;
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
    degree_histogram = Array.sub !counts 0 (!max_degree + 1);
    degree_gini = gini_of_histogram ~population !counts;
  }
