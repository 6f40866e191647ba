(** Lazy Steiner-row generation, shared by {!Ebf} and {!Skew_lp}.

    Section 4.6 keeps the [binom(t,2)] Steiner rows out of the LP until
    they are violated: solve, scan every terminal pair, add the worst, and
    re-solve. This module owns the pair bookkeeping of that loop — the
    nearest-neighbour seed set, the record of materialised pairs, and the
    violation scan with its top-batch selection.

    Pairs are numbered by terminal index [i < j] with key [i * t + j].
    The scan never computes an LCA: terminals are ordered by the preorder
    of their tree nodes, so every subtree owns a contiguous range, and the
    pairs whose LCA is [v] are enumerated together as [v]'s own terminal
    against its descendants plus each child's range against the later
    children's. The path length of such a pair is
    [d_i + d_j - 2 d_v]. *)

type t

val create : Lubt_topo.Tree.t -> (int * Lubt_geom.Point.t) array -> t
(** [create tree terms] indexes the terminals [terms.(i) = (node, p)].
    @raise Invalid_argument when two terminals share a tree node. *)

val size : t -> int
(** Number of terminals. *)

val nearest : t -> int -> (int -> int -> unit) -> unit
(** [nearest s k f] calls [f i j] for the [k] nearest terminals [j] of
    each terminal [i] (Manhattan distance), [i] ascending and, for each
    [i], by ascending [(distance, j)]. *)

val mark : t -> int -> int -> unit
(** [mark s i j] records the pair [{i, j}] as materialised; the scan
    skips it from then on. *)

val marked : t -> int -> int -> bool

type scan = {
  found : int;  (** every violated unmarked pair seen, not just the batch *)
  top : (int * int) array;
      (** the [batch] worst as [(i, j)], [i < j], worst first: larger
          violation first, and on equal violation the larger key first *)
  cut : bool;  (** [expired] fired; the scan is incomplete *)
}

val scan :
  t ->
  delays:float array ->
  threshold:float ->
  batch:int ->
  ?expired:(unit -> bool) ->
  unit ->
  scan
(** Scans every unmarked pair with positive distance for
    [dist - path > threshold], given the node delays (root-to-node path
    lengths) of the current lengths. [expired] is polled every few tens of
    thousands of pairs; when it returns [true] the scan stops and reports
    what it saw. Not reentrant on one [t]. *)

val first_short_pair :
  t -> delays:float array -> eps:float -> (int * int * float * float) option
(** The pair [(i, j, path, dist)] with the smallest key among those with
    [path < dist - eps], over all pairs (marks and zero distances
    included). *)
