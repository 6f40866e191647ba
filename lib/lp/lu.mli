(** Sparse LU factorisation with partial pivoting (left-looking,
    Gilbert-Peierls style with a dense accumulator column). Each column
    is eliminated only by the earlier pivots whose rows it reaches,
    popped in ascending order from a heap, so factorisation work follows
    the nonzeros rather than the dimension.

    Factors a square matrix given by its sparse columns as [P A = L U]
    and provides the four triangular solves the revised simplex needs:
    ftran ([A x = b]), btran ([A^T x = c]), and their dense-input
    variants. Basis matrices of EBF programs are extremely sparse (path
    incidence structure), so factorisation and solves run in roughly
    O(nnz) instead of the dense O(n^3)/O(n^2).

    {b Not reentrant.} A factorisation owns the workspace its solves run
    in (a dense scratch column, the reach stamps and stacks), allocated
    once by {!factor} so that no solve allocates. Two solves on the same
    [t] must therefore never run at the same time; distinct
    factorisations are independent. *)

type t

exception Singular of int
(** Raised by {!factor} with the offending column when the matrix is
    numerically singular (pivot below the tolerance). *)

val factor : ?pivot_tol:float -> Sparse.t array -> t
(** [factor cols] factors the square matrix whose [j]-th column is
    [cols.(j)] (row indices must be < [Array.length cols]). *)

val dim : t -> int
(** Dimension of the factored (square) matrix. *)

val nnz : t -> int
(** Fill-in diagnostic: stored nonzeros of [L] and [U]. *)

type factors = {
  l_index : int array array;
      (** strictly-below-pivot rows of [L] column [k], original row
          indices *)
  l_value : float array array;
  u_index : int array array;
      (** above-diagonal entries of [U] column [j], as pivot positions,
          descending *)
  u_value : float array array;
  diag : float array;  (** the diagonal of [U] *)
  pivot_rows : int array;  (** pivot position [k] -> original row *)
}

val factors : t -> factors
(** The stored factors, shared with [t] (do not mutate). For diagnostics
    and for tests that pin the elimination order bit for bit. *)

val solve : t -> float array -> float array -> unit
(** [solve t b x] writes [x] with [A x = b] into [x.(0 .. dim-1)]; [b]
    is indexed by rows, [x] by columns. Only the first [dim] entries of
    either array are touched, and [x] may be [b] itself. *)

val solve_transpose : t -> float array -> float array -> unit
(** [solve_transpose t c x] writes [x] with [A^T x = c]; [c] is indexed
    by columns, [x] by rows. [x] may be [c] itself. *)

val solve_sparse : t -> float array -> int array -> int -> float array -> unit
(** Hyper-sparse variant of {!solve}: [solve_sparse t b bi nb x]
    reads the right-hand side [b] only at the [nb] rows listed in
    [bi.(0 .. nb-1)] (its nonzeros) and visits only the symbolic reach of
    those rows through [L] and [U] (Gilbert-Peierls). The dense result in
    [x] equals {!solve} on the same [b] bit for bit — entries outside
    the reach are exact zeros, not truncations. [x] may be [b] itself.
    Pays off when the reach is a small fraction of the dimension, as with
    unit right-hand sides on the path-structured EBF bases. *)

val solve_transpose_sparse :
  t -> float array -> int array -> int -> float array -> unit
(** Hyper-sparse variant of {!solve_transpose}; [ci] lists the
    nonzero columns of [c]. Uses the reverse adjacency of [L]/[U] built
    at factor time for the symbolic phase. *)
