(** Typed scalar compilation for the native backend (§5).

    Compiles expression-tree scalars into monomorphic [unit -> int] /
    [unit -> float] / [unit -> bool] closures over *cursors* into flat row
    stores — the OCaml rendering of the pointer-walking expressions the
    paper's generated C contains. Integer closures carry a host type tag:
    an [int] may be an integer, a day-count date, a 0/1 bool or a
    dictionary string code, and comparisons/decodes dispatch on that tag
    once, at compile time.

    Parameters compile to reads of typed parameter registers inside the
    plan's context block (the paper's [Context] struct); they are filled
    from boxed values at execution time. *)

open Lq_value

(** A position in a flat store: the segment loop writes [cell], compiled
    readers dereference it. *)
type cursor = { store : Lq_storage.Rowstore.t; cell : int ref }

(** A compiled scalar: typed closure plus the host type it decodes to. *)
type t =
  | I of (unit -> int) * Vtype.t  (** Int, Date, Bool or String (dict code) *)
  | F of (unit -> float)
  | B of (unit -> bool)

(** How a query variable is bound: a store row under a cursor, or a set of
    computed fields (a pending projection not yet materialized), or a
    single computed scalar. *)
type elem =
  | Row of cursor * (string * int) list
      (** cursor plus (field, column) bindings *)
  | Fields of (string * t) list
  | Scalar of t

type ctx

val ctx : ?trace:(int -> unit) -> dict:Lq_storage.Dict.t -> unit -> ctx
val dict : ctx -> Lq_storage.Dict.t

val bind_params : ctx -> (string * Value.t) list -> unit
(** Fills the parameter registers for one execution (dates become day
    counts, strings dictionary codes...).
    @raise Lq_fault.Fault on a missing or ill-typed binding. *)

val compile :
  ctx ->
  env:(string * elem) list ->
  on_agg:(Lq_expr.Ast.agg -> Lq_expr.Ast.expr -> Lq_expr.Ast.lambda option -> t) ->
  on_subquery:(Lq_expr.Ast.query -> t) ->
  Lq_expr.Ast.expr ->
  t
(** Emits closures from the expression's [Lq_expr.Typed] form; hoisted
    constants are typed by their names ({!Lq_expr.Shape.const_type}).
    @raise Lq_catalog.Engine_intf.Unsupported for constructs outside the
    native subset (nested records, untypable parameters...). *)

val vty : t -> Vtype.t
val as_int : t -> (unit -> int)
(** The integer image: ints, dates, dictionary codes, 0/1 bools.
    @raise Lq_catalog.Engine_intf.Unsupported on a float closure. *)

val as_bool : t -> (unit -> bool)
val key_part : t -> (unit -> int)
(** A single integer image of the value: ints, dates, bools and dict codes
    directly; floats via their truncated IEEE bits. Only safe as a key when
    the closure's type is integer-family — float hash keys must use
    {!key_parts}. *)

val key_parts : t -> (unit -> int) list
(** Integer hash-key components. Integer-family values contribute one
    part; floats two (their 64 bits do not fit one OCaml [int] — the
    truncation would conflate [x] and [-x]). *)

val float_of_key_parts : hi:int -> lo:int -> float
(** Inverse of the two-part float image. *)

val elem_to_value : ctx -> elem -> (unit -> Value.t)

val elem_fields : ctx -> elem -> (string * t) list
(** Fields of an element. A [Scalar] exposes the single pseudo-field
    {!scalar_field}. *)

val scalar_field : string
(** ["__val"] — the column name a scalar element materializes under. *)
