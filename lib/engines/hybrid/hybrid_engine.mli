(** The combined C#/C backend (§6), as an engine.

    The managed side iterates the boxed source collections, applies the
    source-level filters, performs the implicit projection and stages the
    surviving fields into flat buffers; the native plan then does the heavy
    lifting over the staged rows; results are constructed natively from
    copied fields (Max) or by re-associating staged index columns with the
    original objects (Min).

    Four variants, as measured in §7:

    - {e full materialization} (§6.1.1): all input is staged before the
      native code runs;
    - {e buffered} (§6.1.2): a single fixed-size buffer is refilled as the
      native side consumes it, keeping the staging footprint constant;
    - {e Max}: stage every field the offloaded part or the result needs;
    - {e Min}: stage only keys plus an index column and look the original
      objects up again for result construction — only possible when results
      are (projections of) source elements or a plain join of them; refused
      otherwise ("the Min approach is not possible for complex queries",
      §7.4).

    Under a trace, each run of a staged input's driver records three
    [Staging] spans named after the paper's phases — "Iterate data (C#)",
    "Apply predicates (C#)", "Data staging (C#)" — each with a [stage]
    attribute naming the source occurrence. Their sum is the driver's
    measured wall time minus its flushes into the native operator; the
    split between them is estimated from every 256th element, timed
    phase by phase. "Data staging (C#)" also carries [bytes]: the staging
    memory of that input (the §7.1 "390 MB vs one buffer page"
    comparison). The offloaded remainder is one [Native_op] span, result
    construction one [Return_result] span, "Return result (C/C#)". *)

type construction =
  | Min
  | Max

val make : ?buffered:bool -> ?construction:construction -> unit -> Lq_catalog.Engine_intf.t
val engine : Lq_catalog.Engine_intf.t
(** Full materialization, Max construction — the default "C#/C Code". *)

val engine_buffered : Lq_catalog.Engine_intf.t

