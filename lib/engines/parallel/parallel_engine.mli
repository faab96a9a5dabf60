(** Parallel native execution (extension).

    §4 of the paper notes that its generated code is amenable to "existing
    parallelisation strategies [5, 21]" but leaves parallel execution out
    of scope. This backend implements the classic strategy over the §5
    native plans using OCaml 5 domains:

    - the query is lowered once; the plan is split at the topmost
      partitionable node — the source scan plus its fused
      filters/projections, or a grouping over them whose aggregates all
      decompose — and every worker domain compiles that plan fragment
      into an independent native plan over the shared flat store;
    - a decomposable grouping runs per domain with partial accumulators
      ([Avg] splits into sum+count) that are merged on the coordinating
      domain, preserving first-occurrence group order; a grouping that
      reads [g.Items] or the group value whole is partitioned at its
      input instead;
    - whatever sits above the partition (grouping, sorting, take) runs
      sequentially on the merged rows.

    Scheduling is morsel-driven: the scan is cut into small fixed-size
    work units (the [LQ_MORSEL_SIZE] knob, clamped so small tables still
    fan out) that worker Domains pull from a shared atomic counter, so a
    Domain that drew cheap rows simply pulls more units and one slow
    partition no longer gates the query. Results are reassembled in
    morsel order — byte-identical to a sequential scan whatever the
    Domain count. Every morsel is a typed-fault / cancellation checkpoint
    (chaos point ["parallel/morsel"]) and records a [Morsel] trace span
    under its worker's [Partition] span.

    Restrictions, refused through the engine's capabilities
    ({!Lq_plan.Plan.check}): a single source — no joins, sub-queries or
    runtime string interning ([Lower]/[Upper]) — and float aggregates may differ from sequential results in the last
    bits (partial sums are combined in a different order; the morsel
    combination order itself is deterministic). *)

val make : ?name:string -> domains:int -> unit -> Lq_catalog.Engine_intf.t
(** [name] defaults to ["compiled-c-parallel[<domains>]"]. *)

val engine : Lq_catalog.Engine_intf.t

val engine_with : domains:int -> Lq_catalog.Engine_intf.t
(** Fixed worker count (the default uses
    [Domain.recommended_domain_count], capped at 8). *)

val counters : Lq_metrics.Counters.t
(** Process-global scheduler counters ([parallel/morsels],
    [parallel/executions]), surfaced by [Provider.report]. *)

val default_morsel_size : int
