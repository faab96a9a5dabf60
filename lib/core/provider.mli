(** The query provider (§3, Fig. 3).

    The pipeline a query statement goes through when its result is first
    consumed:

    {v
    ConstantEvaluator → Optimizer → QueryCache lookup
        → (miss) parameterize constants, generate + compile code, cache
        → execute compiled code under the parameter bindings
    v}

    Engines are pluggable; the provider also exposes preparation alone
    (for code-generation-cost measurements) and instrumented execution
    (cache-simulated runs, Fig. 14). *)

open Lq_value

type t

val create :
  ?optimizer:Optimizer.options ->
  ?use_cache:bool ->
  ?recycle_results:bool ->
  ?query_cache_entries:int ->
  ?result_cache_entries:int ->
  ?result_cache_rows:int ->
  Lq_catalog.Catalog.t ->
  t
(** [recycle_results] additionally memoizes materialized result rows per
    (engine, shape, constants, parameters) — the §9 "query result caching"
    extension. The provider subscribes to the catalog's invalidation
    hooks, so {!Lq_catalog.Catalog.replace}/[remove] automatically drop
    the recycled results of the mutated table.

    [query_cache_entries] bounds the compiled-plan LRU (0 disables it,
    negative unbounds it; default {!Query_cache.default_capacity}).
    [result_cache_entries] / [result_cache_rows] bound the result LRU by
    entry count and by total cached rows.

    A provider may be shared between Domains: both caches are
    mutex-guarded, and plan compilation happens outside the lock. *)

val catalog : t -> Lq_catalog.Catalog.t
val cache_stats : t -> Query_cache.stats
val clear_cache : t -> unit

val cache_counters : t -> Lq_metrics.Counters.t
(** The query cache's raw counters, including per-engine hit/miss and
    compile-time breakdowns. *)

val report : t -> string
(** Human-readable cache observability block: both caches' headline
    stats plus the per-engine counter listing. *)

val result_cache_stats : t -> Result_cache.stats option
(** [None] unless created with [~recycle_results:true]. *)

val clear_result_cache : t -> unit
(** Drops all recycled results. Mutations that go through
    {!Lq_catalog.Catalog.replace} invalidate automatically; this is the
    big hammer for out-of-band changes. *)

val run :
  t ->
  engine:Lq_catalog.Engine_intf.t ->
  ?params:(string * Value.t) list ->
  ?checkpoint:(string -> unit) ->
  Lq_expr.Ast.query ->
  Value.t list
(** Full pipeline: canonicalize, optimize, hit or fill the cache, execute.

    [checkpoint] (default: no-op) is invoked at each stage boundary with
    the stage just completed — ["optimized"], then ["prepared"] — before
    execution begins. Raising from it aborts the run; the service layer
    uses this for cooperative deadline cancellation between pipeline
    stages.

    @raise Lq_catalog.Engine_intf.Unsupported when the engine refuses the
    query. *)

val run_instrumented :
  t ->
  engine:Lq_catalog.Engine_intf.t ->
  ?params:(string * Value.t) list ->
  Lq_cachesim.Hierarchy.t ->
  Lq_expr.Ast.query ->
  Value.t list
(** Executes with the cache-simulation tracer installed (plans are
    prepared fresh, bypassing the query cache). *)

val prepare_only :
  t ->
  engine:Lq_catalog.Engine_intf.t ->
  Lq_expr.Ast.query ->
  Lq_catalog.Engine_intf.prepared * [ `Hit | `Miss ]
(** Preparation without execution, reporting cache behaviour. *)

val plan_check :
  t ->
  engine:Lq_catalog.Engine_intf.t ->
  Lq_expr.Ast.query ->
  (unit, string) result
(** The engine's capability verdict on the lowered plan, with no code
    generation: [Error reason] means preparation is guaranteed to raise
    {!Lq_catalog.Engine_intf.Unsupported}. The service layer uses this to
    route around an engine before paying codegen. *)

val explain :
  t ->
  engine:Lq_catalog.Engine_intf.t ->
  Lq_expr.Ast.query ->
  string * (unit, string) result
(** The rendered physical plan (after canonicalization, rewrites and
    shared lowering) plus the engine's capability verdict — the [lqcg
    explain] backend. *)

val reference : t -> ?params:(string * Value.t) list -> Lq_expr.Ast.query -> Value.t list
(** The reference interpreter's answer (the differential-testing oracle). *)

val optimized : t -> Lq_expr.Ast.query -> Lq_expr.Ast.query
(** The query after canonicalization and rewrites (for inspection). *)

val decorrelated : t -> Lq_expr.Ast.query -> bool
(** Whether the optimizer's decorrelation pass rewrote a correlated
    sub-query in [q] — i.e. a query the compiled engines would have
    refused wholesale before the rewrite. Routing observability only. *)
