(** Convenience front end: load a model into the revised simplex engine,
    solve it, and package the solution. *)

val solve :
  ?params:Simplex.params ->
  ?check:Certify.level ->
  Problem.t ->
  Status.solution
(** [solve prob] solves and packages the model. With [check] (default
    {!Certify.Off}) an [Optimal] claim is certified a posteriori by
    {!Certify.check}; if certification rejects it, the independent
    {!Tableau} oracle is consulted, and only when the oracle's answer also
    fails does the status degrade to [Numerical_failure]. A solution served
    by the engine's own tableau fallback is certified at [Primal] level
    (it carries no duals). Warm-start caching lives one level up, in
    [Ebf.solve], which fingerprints the EBF formulation. *)

val solve_exn :
  ?params:Simplex.params ->
  ?check:Certify.level ->
  Problem.t ->
  Status.solution
(** Like {!solve}, but raises [Failure] unless the status is [Optimal].
    The message carries the status, the objective reached and the
    iteration count, so callers logging the failure see where the solve
    stopped. *)
