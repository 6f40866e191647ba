module Point = Lubt_geom.Point
module Tree = Lubt_topo.Tree
module Problem = Lubt_lp.Problem
module Simplex = Lubt_lp.Simplex
module Status = Lubt_lp.Status

type result = {
  status : Status.t;
  lengths : float array;
  objective : float;
  window : float * float;
  lp_rows : int;
  lp_iterations : int;
  rounds : int;
}

(* Mirrors Ebf.solve's lazy row generation, with one extra free variable t
   and the delay rows 0 <= path(s_0, s_i) - t <= B. The Steiner machinery
   is identical; kept separate because the variable layout differs. *)
let solve ?(options = Ebf.default_options) ?weights ~skew_bound
    (inst : Instance.t) tree =
  if Tree.num_sinks tree <> Instance.num_sinks inst then
    invalid_arg "Skew_lp: tree sink count differs from instance";
  if skew_bound < 0.0 then invalid_arg "Skew_lp: negative skew bound";
  let n = Tree.num_nodes tree in
  let edge_var i = i - 1 in
  let prob = Problem.create () in
  for i = 1 to n - 1 do
    let w = match weights with None -> 1.0 | Some ws -> ws.(i) in
    let up = if Tree.forced_zero tree i then 0.0 else infinity in
    ignore (Problem.add_var ~lo:0.0 ~up ~obj:w prob)
  done;
  let t_var =
    Problem.add_var ~lo:neg_infinity ~up:infinity ~obj:0.0 ~name:"t" prob
  in
  let path_coeffs a b = List.map (fun e -> (edge_var e, 1.0)) (Tree.path tree a b) in
  (* delay rows: t <= delay_i <= t + B *)
  Array.iter
    (fun node ->
      ignore
        (Problem.add_row prob ~lo:0.0 ~up:skew_bound
           ((t_var, -1.0) :: path_coeffs Tree.root node)))
    (Tree.sinks tree);
  let terms =
    let sink_nodes = Tree.sinks tree in
    let base =
      Array.to_list
        (Array.mapi (fun k node -> (node, inst.Instance.sinks.(k))) sink_nodes)
    in
    match inst.Instance.source with
    | Some src -> Array.of_list ((Tree.root, src) :: base)
    | None -> Array.of_list base
  in
  let nt = Array.length terms in
  let pairs = Steiner_rows.create tree terms in
  let scale = max 1.0 (Instance.diameter inst +. Instance.radius inst) in
  let eager = (not options.Ebf.lazy_steiner) || nt <= 12 in
  let add_pair_row i j =
    Steiner_rows.mark pairs i j;
    let a, pa = terms.(i) and b, pb = terms.(j) in
    let d = Point.dist pa pb in
    if d > 0.0 then ignore (Problem.add_row prob ~lo:d ~up:infinity (path_coeffs a b))
  in
  if eager then
    for i = 0 to nt - 1 do
      for j = i + 1 to nt - 1 do
        add_pair_row i j
      done
    done
  else begin
    (* nearest-neighbour seeding as in Ebf, rows in discovery order *)
    Steiner_rows.nearest pairs options.Ebf.knn (fun i j ->
        if not (Steiner_rows.marked pairs i j) then
          add_pair_row (min i j) (max i j));
    match inst.Instance.source with
    | Some _ ->
      for j = 1 to nt - 1 do
        if not (Steiner_rows.marked pairs 0 j) then add_pair_row 0 j
      done
    | None -> ()
  end;
  let eng = Simplex.of_problem ~params:options.Ebf.lp_params prob in
  let lengths_of_primal primal =
    let lengths = Array.make n 0.0 in
    for i = 1 to n - 1 do
      lengths.(i) <- max 0.0 primal.(edge_var i)
    done;
    lengths
  in
  let rec loop rounds =
    let status = Simplex.solve eng in
    if status <> Status.Optimal then (status, rounds)
    else begin
      let lengths = lengths_of_primal (Simplex.primal eng) in
      let sc =
        Steiner_rows.scan pairs ~delays:(Tree.delays tree lengths)
          ~threshold:(options.Ebf.violation_tol *. scale)
          ~batch:options.Ebf.batch ()
      in
      if sc.Steiner_rows.found = 0 then (Status.Optimal, rounds)
      else if rounds >= options.Ebf.max_rounds then (Status.Iteration_limit, rounds)
      else begin
        Array.iter
          (fun (i, j) ->
            Steiner_rows.mark pairs i j;
            let a, pa = terms.(i) and b, pb = terms.(j) in
            let dist = Point.dist pa pb in
            Simplex.add_row eng ~lo:dist ~up:infinity (path_coeffs a b))
          sc.Steiner_rows.top;
        loop (rounds + 1)
      end
    end
  in
  let status, rounds = loop 1 in
  let primal = Simplex.primal eng in
  let lengths = lengths_of_primal primal in
  let t = primal.(t_var) in
  {
    status;
    lengths;
    objective = Simplex.objective eng;
    window = (t, t +. skew_bound);
    lp_rows = Simplex.nrows eng;
    lp_iterations = Simplex.iterations eng;
    rounds;
  }
