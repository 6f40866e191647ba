(** Leveled structured logging to stderr.

    Replaces the ad-hoc [eprintf] diagnostics that used to live in the
    CLI and the simplex recovery ladder. A record is one line:

    {v
    lubt: [warn] recovery stage engaged stage=tighten_pivot_tol iter=412
    v}

    i.e. a level tag, a human message, then [key=value] structured
    fields. Stdout is never touched — the repo's contract that stdout
    carries only machine-readable output (JSON, solutions) holds.

    The level check happens {e before} any formatting work, so a
    disabled [debug] call costs one atomic load. The default level is
    {!Warn}: library code can log freely without polluting test
    output, and the CLI raises it to [info] (its historical stderr
    chattiness) or whatever [--log-level] says.

    When {!Trace} recording is enabled, each emitted record is also
    mirrored into the trace as an instant event named
    ["log.<level>"], so log context lines up with spans in
    Perfetto. *)

type level = Error | Warn | Info | Debug

val set_level : level -> unit

val level : unit -> level

val level_of_string : string -> (level, string) result
(** Accepts ["error"], ["warn"], ["info"], ["debug"] (case-insensitive). *)

val level_to_string : level -> string

type field = string * Trace.value
(** A structured [key=value] pair, rendered after the message and
    attached to the mirrored trace instant. *)

val err : ?fields:field list -> ('a, Format.formatter, unit) format -> 'a
val warn : ?fields:field list -> ('a, Format.formatter, unit) format -> 'a
val info : ?fields:field list -> ('a, Format.formatter, unit) format -> 'a
val debug : ?fields:field list -> ('a, Format.formatter, unit) format -> 'a

val set_formatter : Format.formatter -> unit
(** Redirects output (tests). Default: [Format.err_formatter]. *)
