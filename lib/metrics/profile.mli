(** The process clock.

    Every timing in the stack — trace spans, service latencies, deadlines,
    benchmark samples — reads this one clock. Per-phase cost breakdowns
    (the paper's Figs. 8/10/12) are trace spans, summed by
    {!Lq_trace.Trace.phases}. *)

val now_ms : unit -> float
(** Monotonic clock (CLOCK_MONOTONIC) in milliseconds. The origin is
    arbitrary — only differences are meaningful — but successive samples
    never decrease, even across wall-clock adjustments. *)
