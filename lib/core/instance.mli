(** A LUBT problem instance (Definition 2.1): sink locations, an optional
    source location, and per-sink delay bounds.

    Bounds are absolute wire-length units under the linear delay model. The
    paper normalises bounds to the instance radius; use {!radius} and
    {!with_normalized_bounds} for that convention. *)

type t = private {
  sinks : Lubt_geom.Point.t array;
  source : Lubt_geom.Point.t option;
  lower : float array;  (** per sink, same order as [sinks] *)
  upper : float array;
}

val create :
  ?source:Lubt_geom.Point.t ->
  sinks:Lubt_geom.Point.t array ->
  lower:float array ->
  upper:float array ->
  unit ->
  t
(** @raise Invalid_argument when arrays disagree in length, some
    [lower > upper], some bound is negative, some lower bound is
    infinite, or a sink or source coordinate is not finite. *)

val uniform_bounds :
  ?source:Lubt_geom.Point.t ->
  sinks:Lubt_geom.Point.t array ->
  lower:float ->
  upper:float ->
  unit ->
  t
(** Same bounds for every sink (the tolerable-skew setting of Section 6). *)

val num_sinks : t -> int

val diameter : t -> float
(** Largest Manhattan distance between two sinks, O(m) via rotated
    coordinates. *)

val radius : t -> float
(** Distance from the source to the farthest sink when the source is given;
    half the diameter otherwise (Section 2). *)

val with_normalized_bounds : t -> lower:float -> upper:float -> t
(** Replaces the bounds with [lower * radius, upper * radius] for every
    sink (the convention of Tables 1-3). *)

val with_bounds : t -> lower:float array -> upper:float array -> t

val bounds_admissible : t -> bool
(** Checks condition (3)/(4): [0 <= l_i <= u_i] and [u_i >= dist(s_0,s_i)]
    (source given) or [u_i >= radius] (source free). *)

val pp : Format.formatter -> t -> unit

(** Engineering change orders: the small instance edits (a bound tightened
    or relaxed, a sink nudged, a sink added or removed) that arrive between
    re-solves of the same design. Edits are pure — every application
    returns a fresh validated instance — and carry enough information for
    the warm-start layer to decide whether the parent's cached LP basis is
    still structurally compatible ({!Edit.preserves_topology}). *)
module Edit : sig
  type op =
    | Set_bounds of { sink : int; lower : float; upper : float }
        (** replace sink [sink]'s delay window with [lower, upper] *)
    | Move_sink of { sink : int; dx : float; dy : float }
        (** translate sink [sink] by [(dx, dy)] *)
    | Add_sink of { point : Lubt_geom.Point.t; lower : float; upper : float }
        (** append a new sink (index [num_sinks t]) *)
    | Remove_sink of { sink : int }  (** delete sink [sink] *)

  val op_name : op -> string
  (** Wire name of the constructor ([set_bounds], [move_sink], ...), as
      used by the serve protocol's ["eco"] request. *)

  val apply : t -> op -> (t, string) result
  (** Applies one edit. [Error] (with a human-readable reason) on an
      out-of-range sink index, bounds violating [0 <= lower <= upper], or
      removing the last sink; the input instance is never mutated. *)

  val apply_all : t -> op list -> (t, string) result
  (** Applies edits left to right, stopping at the first failure. *)

  val preserves_topology : op -> bool
  (** Whether the edit keeps the sink set (and hence any routing topology
      over it) intact: [true] for [Set_bounds] and [Move_sink], [false]
      for [Add_sink] and [Remove_sink], which change the node set and
      force topology re-derivation. *)
end
