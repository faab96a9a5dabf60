(** Static typing of expression trees.

    The paper's code generators recover the (static) types of the data
    flowing through the query from the expression tree / C# reflection and
    use them to lay out intermediate results and flat C structs. This module
    is the analogue: it assigns a {!Lq_value.Vtype.t} to every query and
    scalar expression, which the compiled, native and hybrid backends use to
    choose unboxed representations and to reject ill-typed queries before
    any code is generated. *)

open Lq_value

exception Type_error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raises {!Type_error} with a formatted message. *)

type tenv = {
  source_type : string -> Vtype.t;  (** element type of a named source *)
  param_type : string -> Vtype.t;  (** declared type of a query parameter *)
}

val tenv :
  ?source_type:(string -> Vtype.t) -> ?param_type:(string -> Vtype.t) -> unit -> tenv
(** Defaults raise {!Type_error} for every name. *)

(** {2 Rules shared with {!Typed}} — each raises {!Type_error}. *)

val numeric_join : Vtype.t -> Vtype.t -> Vtype.t
(** Arithmetic result type: [Int] for two ints, else [Float]. *)

val comparable : Vtype.t -> Vtype.t -> unit
(** Accepts two numeric types or two equal types. *)

val signature : Ast.func -> (Vtype.t list * Vtype.t) option
(** Argument and result types of a built-in; [None] for [Abs]. *)

val call_result : Ast.func -> Vtype.t list -> Vtype.t

val expr_type : tenv -> env:(string * Vtype.t) list -> Ast.expr -> Vtype.t
(** Type of a scalar expression under lambda-variable typings [env]. *)

val query_type : tenv -> env:(string * Vtype.t) list -> Ast.query -> Vtype.t
(** Element type of a query's result. [env] types the correlation variables
    when the query is nested. *)

val element_schema : tenv -> Ast.query -> Schema.t
(** Schema of the query's (record-typed) result elements.
    @raise Type_error if the element type is not a record. *)
