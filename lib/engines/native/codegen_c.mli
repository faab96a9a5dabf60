(** C emission for lowered native plans (§5.1, closed loop).

    Renders a lowered [Lq_plan.Plan.t] as a self-contained C translation
    unit with a single entry point, [lq_query], operating directly on
    the raw row pages the interpreted native backend reads:

    {v
    int64_t lq_query(const unsigned char **srcs, const int64_t *nrows,
                     const int64_t *ip, const double *fp,
                     const unsigned char *db, const int32_t *dofs,
                     unsigned char *out, int64_t cap);
    v}

    The emission mirrors [Nplan] operator by operator and emits each
    expression from the same {!Lq_expr.Typed} form [Nexpr] compiles, so
    the compiled object and the interpreted program produce identical
    rows in identical order. The JIT engine
    ([Lq_jit]) compiles [program.c_source] with [cc -O2 -shared -fPIC]
    and dlopens the result; [emit]/[emit_lowered] render the same source
    as a total documentation listing for [prepared.source]. *)

exception Unsupported_c of string
(** The plan has no faithful C rendering (nested data, interning calls,
    unfused groups...). The JIT serves such shapes from the interpreted
    tier. *)

val abi_version : int
(** Version of the [lq_query] contract; part of the artifact cache key
    so stale objects from an older emitter are never loaded. *)

val div_by_zero : int
(** [lq_query]'s result on an integer division by zero ([-1] is an arena
    allocation failure). *)

(** An integer parameter register of the generated function. *)
type cparam =
  | Named of string  (** a query parameter, bound by name at execute *)
  | Str_const of string
      (** a string literal; the caller interns it to a dictionary code at
          execute time — codes are process state and never enter the
          object *)

type program = {
  c_source : string;
  scan_tables : string list;
      (** tables behind [srcs]/[nrows], in argument order (repeats allowed:
          one entry per scan) *)
  int_params : cparam list;  (** contents of [ip], in register order *)
  float_params : string list;  (** contents of [fp], in register order *)
  out_fields : (string * Lq_value.Vtype.t) list;
      (** result row schema; the output buffer is packed with
          [Layout.make out_fields] *)
  out_scalar : bool;
      (** the query yields bare scalars: decode the single [out_fields]
          column as the value itself, not a record *)
  needs_dict : bool;
      (** the object reads the dictionary snapshot ([db]/[dofs]) *)
}

val emit_plan : Lq_catalog.Catalog.t -> Lq_plan.Plan.t -> program
(** @raise Unsupported_c when the plan cannot be mirrored in C.
    @raise Lq_catalog.Catalog.Not_flat on non-flat sources. *)

val emit_lowered : Lq_catalog.Catalog.t -> Lq_plan.Plan.t -> string
(** [emit_plan]'s C source as a total listing: unsupported plans render
    as a comment stub. Never raises. *)

val emit : Lq_catalog.Catalog.t -> Lq_expr.Ast.query -> string
(** Lowers with default options and renders like {!emit_lowered}.
    Total — the documentation entry point ([prepared.source], CLI). *)
