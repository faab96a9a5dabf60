(** The compiled-query cache (§3, "QueryCache").

    Compiled plans are cached under (engine, canonical shape); a query that
    differs from a cached one only in constant values reuses the cached
    plan with its constants rebound as parameters — the paper's central
    amortization: "a typical LINQ application does not contain many
    different query patterns... caching compiled code for each query
    pattern can significantly reduce the compilation overhead".

    The store is a bounded LRU ({!Lru}): capacity 0 disables caching
    entirely (every lookup compiles and counts as a miss), a negative
    capacity removes the bound.

    All operations are Domain-safe behind an internal mutex. Compilation
    itself runs outside the lock, so concurrent providers can hit the
    cache while one of them compiles; two Domains racing to compile the
    same shape at worst duplicate one compilation. *)

type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;  (** entries displaced by capacity pressure *)
  rejected : int;  (** compilations the store could not admit (capacity 0) *)
  compile_ms : float;  (** total reported codegen cost of all misses *)
}

type t

val default_capacity : int
(** 256 entries. *)

val create : ?max_entries:int -> unit -> t

val find_or_compile :
  t ->
  engine:string ->
  shape:string ->
  ?tables:string list ->
  compile:(unit -> Lq_catalog.Engine_intf.prepared) ->
  unit ->
  Lq_catalog.Engine_intf.prepared * [ `Hit | `Miss ]
(** Exactly one of [hits]/[misses] is incremented per call. [tables]
    (default none) registers the plan's source tables for
    {!invalidate}. *)

val invalidate : t -> table:string -> unit
(** Drops every cached plan compiled over the given table. Compiled plans
    bind their sources at prepare time, so a table reload makes them
    stale; the provider wires this to the catalog's invalidation hooks. *)

val stats : t -> stats

val counters : t -> Lq_metrics.Counters.t
(** The raw counter registry, including per-engine breakdowns under
    ["hits/<engine>"], ["misses/<engine>"] and ["compile_ms/<engine>"]. *)

val engines : t -> string list
(** Engines that currently hold at least one cached plan. *)

val clear : t -> unit
(** Drops all plans and resets every counter. *)
