let solve ?params ?(check = Certify.Off) prob =
  let eng = Simplex.of_problem ?params prob in
  let status = Simplex.solve eng in
  let sol = Simplex.solution eng in
  if status <> Status.Optimal || check = Certify.Off then sol
  else begin
    (* the tableau fallback produces no multipliers, so a Full check would
       reject an honest answer: demote to Primal there *)
    let level = if Simplex.used_fallback eng then Certify.Primal else check in
    let report = Certify.check ~level prob sol in
    if report.Certify.ok then sol
    else begin
      (* the engine's answer failed certification: re-derive it with the
         independent oracle and certify what the oracle can guarantee *)
      let osol = Tableau.solve prob in
      let oreport = Certify.check ~level:Certify.Primal prob osol in
      if osol.Status.status = Status.Optimal && oreport.Certify.ok then
        { osol with Status.iterations = sol.Status.iterations }
      else { sol with Status.status = Status.Numerical_failure }
    end
  end

let solve_exn ?params ?check prob =
  let sol = solve ?params ?check prob in
  if sol.Status.status <> Status.Optimal then
    failwith
      (Printf.sprintf
         "LP not optimal: status %s, objective %.9g, after %d iterations"
         (Status.to_string sol.Status.status)
         sol.Status.objective sol.Status.iterations);
  sol
