(* Real C emission for lowered plans (§5.1, closed loop).

   [emit_plan] walks the same [Lq_plan.Plan.t] the interpreted native
   backend compiles and renders a self-contained C translation unit with
   one entry point:

     int64_t lq_query(const unsigned char **srcs, const int64_t *nrows,
                      const int64_t *ip, const double *fp,
                      const unsigned char *db, const int32_t *dofs,
                      unsigned char *out, int64_t cap);

   - [srcs]/[nrows]: one raw row page (Rowstore data) + row count per
     entry of [program.scan_tables], in emission order;
   - [ip]/[fp]: integer and float parameter registers, in
     [program.int_params]/[program.float_params] order. String constants
     and parameters arrive as dictionary codes interned by the caller at
     bind time — codes are process state and are never baked into the
     object;
   - [db]/[dofs]: a read-only dictionary snapshot (concatenated bytes +
     int32 offsets) for ordering, LIKE and Length, taken after binding;
   - [out]: a caller-owned result buffer of [cap] rows, packed with the
     [Layout.make program.out_fields] offsets. The function always
     returns the TOTAL row count; rows past [cap] are counted but not
     written, so the caller grows the buffer and re-invokes.

   Semantics mirror [Nplan] closure by closure: expressions are emitted
   from the same [Lq_expr.Typed] form [Nexpr.compile] emits closures
   from, hash slots are dense in first-touch insertion order, join chains
   in attach order, sort comparators end with the index tiebreak, limits
   are stop flags. On any plan the mirror cannot carry, [emit_plan]
   raises [Unsupported_c] and the JIT keeps serving the shape from the
   interpreted tier. Allocation failures longjmp to a single exit that
   frees the per-call arena and returns -1; an integer division by zero
   leaves the same way and returns [div_by_zero]. *)

open Lq_value
module Ast = Lq_expr.Ast
module Typed = Lq_expr.Typed
module P = Lq_plan.Plan
module Layout = Lq_storage.Layout
module Ftype = Lq_storage.Ftype
module Catalog = Lq_catalog.Catalog

exception Unsupported_c of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported_c s)) fmt
let spf = Printf.sprintf

(* The entry-point contract above; bump when it changes so cached .so
   files from older emitters are never dlopened. *)
let abi_version = 1

(* the arena exit code the prelude's lq_idiv/lq_imod set *)
let div_by_zero = -2

type cparam =
  | Named of string  (** a query parameter, bound by name at execute *)
  | Str_const of string  (** a string literal, interned to a code at execute *)

type program = {
  c_source : string;
  scan_tables : string list;
  int_params : cparam list;
  float_params : string list;
  out_fields : (string * Vtype.t) list;
  out_scalar : bool;
  needs_dict : bool;
}

(* --- C expressions and elements --------------------------------------- *)

(* [CI] is an int64_t-valued C expression carrying the host type it
   decodes to (Int / Date / Bool / String dict code); [CF] a double;
   [CB] an int 0/1. All are pure reads — duplication is safe. *)
type cexp = CI of string * Vtype.t | CF of string | CB of string

type celem =
  | CRow of string * Layout.t  (** base-pointer variable over a row page *)
  | CFields of (string * cexp) list
  | CScalar of cexp

type ctx = {
  body : Buffer.t;
  aux : Buffer.t;  (** per-operator comparator functions, before lq_query *)
  mutable indent : int;
  mutable freshc : int;
  mutable islots : (cparam * int) list;  (** reversed insertion order *)
  mutable fslots : (string * int) list;
  mutable scans : string list;  (** reversed *)
  mutable needs_dict : bool;
  cat : Catalog.t;
}

let fresh c p =
  c.freshc <- c.freshc + 1;
  spf "%s%d" p c.freshc

let line c fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string c.body (String.make (2 * c.indent) ' ');
      Buffer.add_string c.body s;
      Buffer.add_char c.body '\n')
    fmt

let push c = c.indent <- c.indent + 1
let pop c = c.indent <- c.indent - 1

let islot c p =
  match List.assoc_opt p c.islots with
  | Some k -> k
  | None ->
    let k = List.length c.islots in
    c.islots <- (p, k) :: c.islots;
    k

let fslot c name =
  match List.assoc_opt name c.fslots with
  | Some k -> k
  | None ->
    let k = List.length c.fslots in
    c.fslots <- (name, k) :: c.fslots;
    k

let scan_index c table =
  let k = List.length c.scans in
  c.scans <- table :: c.scans;
  k

let c_string_lit s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | ch when Char.code ch < 32 || Char.code ch > 126 ->
        Buffer.add_string b (spf "\\%03o" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* --- typed accessors ------------------------------------------------ *)

let vty_of = function
  | CI (_, ty) -> ty
  | CF _ -> Vtype.Float
  | CB _ -> Vtype.Bool

let as_int = function
  | CI (code, _) -> code
  | CB code -> code (* comparisons and && yield int 0/1 *)
  | CF _ -> unsupported "expected an integer-typed C expression"

let as_float = function
  | CF code -> code
  | CI _ | CB _ -> unsupported "expected a float-typed C expression"

let as_bool = function
  | CB code -> code
  | CI (code, _) -> spf "(%s != 0)" code
  | CF _ -> unsupported "expected bool, found float (C)"

(* One int64 hash part per field: float bits fit a whole part here
   (unlike the OCaml backend's two 63-bit halves); equality on the bit
   image matches Ht's two-part equality exactly. *)
let key_part = function
  | CI (code, _) -> code
  | CB code -> spf "((int64_t)%s)" code
  | CF code -> spf "lq_fkey(%s)" code

let read_field base (f : Layout.field) =
  match f.Layout.ftype with
  | Ftype.F64 -> CF (spf "rd_f64(%s + %d)" base f.Layout.offset)
  | Ftype.I64 -> CI (spf "rd_i64(%s + %d)" base f.Layout.offset, f.Layout.vty)
  | Ftype.I32 | Ftype.Date32 | Ftype.Str32 ->
    CI (spf "rd_i32(%s + %d)" base f.Layout.offset, f.Layout.vty)
  | Ftype.Bool8 ->
    CI (spf "((int64_t)%s[%d])" base f.Layout.offset, f.Layout.vty)

let celem_fields = function
  | CRow (base, layout) ->
    Array.to_list (Layout.fields layout)
    |> List.map (fun (f : Layout.field) -> (f.Layout.name, read_field base f))
  | CFields fs -> fs
  | CScalar t -> [ (Nexpr.scalar_field, t) ]

(* --- expression emission from the typed form ------------------------ *)

let cmp_op (op : Typed.cmp) =
  match op with
  | Typed.Eq -> "=="
  | Typed.Ne -> "!="
  | Typed.Lt -> "<"
  | Typed.Le -> "<="
  | Typed.Gt -> ">"
  | Typed.Ge -> ">="

let no_agg _ _ _ = unsupported "aggregate outside a group context (C)"
let no_subquery _ = unsupported "nested sub-query (C backend)"

let rec emit c env (e : cexp Typed.t) : cexp =
  (* Operands in order, except that a bare parameter on the left takes its
     register after its sibling's: register numbering, and with it the
     emitted text, stays what it has always been. *)
  let both as_x a b =
    let f e = as_x (emit c env e) in
    match a.Typed.node with
    | Typed.Param _ ->
      let y = f b in
      (f a, y)
    | _ ->
      let x = f a in
      (x, f b)
  in
  let infix as_x fmt a b =
    let x, y = both as_x a b in
    spf fmt x y
  in
  let int e = as_int (emit c env e) and bool e = as_bool (emit c env e) in
  match e.Typed.node with
  | Typed.Const (Value.Int i | Value.Date i) -> CI (spf "INT64_C(%d)" i, e.Typed.ty)
  | Typed.Const (Value.Bool b) -> CB (if b then "1" else "0")
  | Typed.Const (Value.Float f) ->
    if not (Float.is_finite f) then unsupported "non-finite float constant (C)";
    CF (spf "%h" f)
  | Typed.Const (Value.Str s) ->
    (* Dictionary codes are process state: route the literal through a
       synthetic integer register, interned by the caller at bind time. *)
    CI (spf "ip[%d]" (islot c (Str_const s)), Vtype.String)
  | Typed.Const v -> unsupported "constant %s (C)" (Value.to_string v)
  | Typed.Param name -> (
    match e.Typed.ty with
    | Vtype.Float -> CF (spf "fp[%d]" (fslot c name))
    | Vtype.Bool -> CB (spf "(ip[%d] != 0)" (islot c (Named name)))
    | ty -> CI (spf "ip[%d]" (islot c (Named name)), ty))
  | Typed.Var name -> (
    match List.assoc name env with CScalar t -> t | CRow _ | CFields _ -> assert false)
  | Typed.Field (name, field) -> (
    match List.assoc name env with
    | CRow (base, layout) ->
      read_field base (Layout.field_at layout (Layout.field_index_exn layout field))
    | CFields fields -> List.assoc field fields
    | CScalar _ -> assert false)
  | Typed.Nested t -> t
  | Typed.To_float x -> CF (spf "((double)%s)" (int x))
  | Typed.Neg x -> (
    match emit c env x with
    | CF code -> CF (spf "(-%s)" code)
    | t -> CI (spf "(-%s)" (as_int t), Vtype.Int))
  | Typed.Not x -> CB (spf "(!%s)" (bool x))
  | Typed.And (a, b) -> CB (infix as_bool "(%s && %s)" a b)
  | Typed.Or (a, b) -> CB (infix as_bool "(%s || %s)" a b)
  | Typed.Arith (op, a, b) -> (
    let as_x = if Vtype.equal e.Typed.ty Vtype.Float then as_float else as_int in
    let code =
      match op with
      | Typed.Add -> infix as_x "(%s + %s)" a b
      | Typed.Sub -> infix as_x "(%s - %s)" a b
      | Typed.Mul -> infix as_x "(%s * %s)" a b
      | Typed.Div -> infix as_x "(%s / %s)" a b
      | Typed.Mod -> infix as_x "fmod(%s, %s)" a b (* = OCaml Float.rem *)
    in
    match e.Typed.ty with Vtype.Float -> CF code | _ -> CI (code, Vtype.Int))
  (* C99 [/] and [%] truncate toward zero like OCaml's; the helpers also
     fault on a zero divisor, through the arena's exit, where the hardware
     would trap. *)
  | Typed.Int_div (a, b) -> CI (infix as_int "lq_idiv(&A, %s, %s)" a b, Vtype.Int)
  | Typed.Int_mod (a, b) -> CI (infix as_int "lq_imod(&A, %s, %s)" a b, Vtype.Int)
  | Typed.Cmp (op, a, b) ->
    let x, y = both as_int a b in
    CB (spf "(%s %s %s)" x (cmp_op op) y)
  | Typed.Fcmp (op, a, b) ->
    let x, y = both as_float a b in
    CB (spf "(lq_fcmp(%s, %s) %s 0)" x y (cmp_op op))
  | Typed.Scmp (op, a, b) ->
    (* Ordering decodes: dict codes are not order-preserving. *)
    c.needs_dict <- true;
    let x, y = both as_int a b in
    CB (spf "(lq_strcmp(db, dofs, %s, %s) %s 0)" x y (cmp_op op))
  | Typed.If (cond, a, b) -> (
    let fc = bool cond in
    let ta, tb = both Fun.id a b in
    match (e.Typed.ty, ta, tb) with
    | Vtype.Float, _, _ -> CF (spf "(%s ? %s : %s)" fc (as_float ta) (as_float tb))
    | Vtype.Bool, CB f1, CB f2 -> CB (spf "(%s ? %s : %s)" fc f1 f2)
    | ty, _, _ -> CI (spf "(%s ? %s : %s)" fc (as_int ta) (as_int tb), ty))
  | Typed.Call (f, args) -> (
    match (f, args) with
    | (Ast.Starts_with | Ast.Ends_with | Ast.Contains | Ast.Like), [ subject; patt ] -> (
      c.needs_dict <- true;
      let fs = int subject in
      match patt.Typed.node with
      | Typed.Const (Value.Str s) ->
        let pattern = Typed.like_pattern f s in
        CB
          (spf "lq_like_code(db, dofs, %s, %d, 0, 0, %s)" (c_string_lit pattern)
             (String.length pattern) fs)
      | _ ->
        (* pattern ^ "%" ≡ matcher with an implicit trailing %, and
           "%" ^ pattern ≡ an implicit leading % — the affixes without
           runtime string concatenation. *)
        let lead, trail =
          match f with
          | Ast.Starts_with -> (0, 1)
          | Ast.Ends_with -> (1, 0)
          | Ast.Contains -> (1, 1)
          | _ -> (0, 0)
        in
        CB (spf "lq_like_dyn(db, dofs, %s, %d, %d, %s)" (int patt) lead trail fs))
    | (Ast.Lower | Ast.Upper), _ ->
      unsupported "string interning call (the C dictionary is read-only)"
    | Ast.Length, [ x ] ->
      c.needs_dict <- true;
      let fs = int x in
      CI (spf "((int64_t)(dofs[%s + 1] - dofs[%s]))" fs fs, Vtype.Int)
    | Ast.Abs, [ x ] -> (
      match emit c env x with
      | CF code -> CF (spf "fabs(%s)" code)
      | t -> CI (spf "lq_iabs(%s)" (as_int t), Vtype.Int))
    | Ast.Year, [ x ] -> CI (spf "lq_year(%s)" (int x), Vtype.Int)
    | Ast.Add_days, [ d; n ] ->
      let fd = int d in
      CI (spf "(%s + %s)" fd (int n), Vtype.Date)
    | _, _ -> unsupported "call %s (C)" (Lq_expr.Pretty.func_name f))

let var_type env name =
  Option.map
    (function
      | CScalar t -> Typed.Scalar (vty_of t)
      | CFields fields -> Typed.Element (fun f -> Option.map vty_of (List.assoc_opt f fields))
      | CRow (_, layout) ->
        let field_type i = (Layout.field_at layout i).Layout.vty in
        Typed.Element (fun f -> Option.map field_type (Layout.field_index layout f)))
    (List.assoc_opt name env)

let compile c ~env ?(on_agg = no_agg) ?(on_subquery = no_subquery) expr : cexp =
  let nested (e : Ast.expr) =
    let t =
      match e with
      | Ast.Agg (kind, src, sel) -> on_agg kind src sel
      | Ast.Subquery q -> on_subquery q
      | _ -> assert false
    in
    (t, vty_of t)
  in
  match
    Typed.of_expr ~param_type:Lq_expr.Shape.const_type
      ~var:(var_type env)
      ~nested expr
  with
  | typed -> emit c env typed
  | exception Lq_expr.Typecheck.Type_error msg -> unsupported "%s (C)" msg

(* --- plan walking, mirroring Nplan.compile_plan --------------------- *)

let bind1 (l : Ast.lambda) elem =
  match l.Ast.params with
  | [ p ] -> [ (p, elem) ]
  | _ -> unsupported "lambda arity (C)"

let compile_key_parts c ~env (body : Ast.expr) : (string * cexp) list =
  match body with
  | Ast.Record_of fields ->
    List.map (fun (n, e) -> (n, compile c ~env e)) fields
  | e -> [ (Nexpr.scalar_field, compile c ~env e) ]

let elem_of_body c ~env (body : Ast.expr) : celem =
  match body with
  | Ast.Record_of fields ->
    CFields (List.map (fun (n, e) -> (n, compile c ~env e)) fields)
  | Ast.Var name when List.mem_assoc name env -> List.assoc name env
  | e -> CScalar (compile c ~env e)

let stops_cond stops = String.concat "" (List.map (fun s -> " && !" ^ s) stops)

(* Typed spill columns: what Nplan.spill materializes per loop segment.
   Bool values land as int64 0/1 and read back typed Bool — the same
   Rowstore round-trip, where a B never survives a spill. *)
type spill_col = {
  sc_name : string;
  sc_var : string;
  sc_float : bool;
  sc_vty : Vtype.t;
  sc_val : string;  (** C value expression, valid at the input sink *)
}

let spill_cols pfx elem : spill_col list =
  List.mapi
    (fun i (name, t) ->
      let var = spf "%s_c%d" pfx i in
      match t with
      | CF code ->
        {
          sc_name = name;
          sc_var = var;
          sc_float = true;
          sc_vty = Vtype.Float;
          sc_val = code;
        }
      | CI (code, ty) ->
        {
          sc_name = name;
          sc_var = var;
          sc_float = false;
          sc_vty = ty;
          sc_val = code;
        }
      | CB code ->
        {
          sc_name = name;
          sc_var = var;
          sc_float = false;
          sc_vty = Vtype.Bool;
          sc_val = spf "((int64_t)%s)" code;
        })
    (celem_fields elem)

let declare_spill c cols =
  List.iter
    (fun sc ->
      let ty = if sc.sc_float then "double" else "int64_t" in
      line c "%s *%s = NULL; int64_t %s_cap = 0;" ty sc.sc_var sc.sc_var)
    cols

let write_spill c cols ~at =
  List.iter
    (fun sc ->
      let ty = if sc.sc_float then "double" else "int64_t" in
      line c "%s = (%s *)lq_grow(&A, %s, &%s_cap, %s, sizeof(%s));" sc.sc_var
        ty sc.sc_var sc.sc_var at ty;
      line c "%s[%s] = %s;" sc.sc_var at sc.sc_val)
    cols

let spill_elem cols ~at : celem =
  CFields
    (List.map
       (fun sc ->
         let code = spf "%s[%s]" sc.sc_var at in
         (sc.sc_name, if sc.sc_float then CF code else CI (code, sc.sc_vty)))
       cols)

let rec gen c (p : P.t) ~stops : celem * ((unit -> unit) -> unit) =
  match p.P.op with
  | P.Scan s ->
    let table = Catalog.table c.cat s.P.table in
    let store = Catalog.store table in
    let layout = Lq_storage.Rowstore.layout store in
    let width = Layout.row_width layout in
    let k = scan_index c s.P.table in
    let iv = fresh c "i" and rv = fresh c "r" in
    ( CRow (rv, layout),
      fun body ->
        line c "for (int64_t %s = 0; %s < nrows[%d]%s; %s++) {" iv iv k
          (stops_cond stops) iv;
        push c;
        line c "const unsigned char *%s = srcs[%d] + %s * %d;" rv k iv width;
        body ();
        pop c;
        line c "}" )
  | P.Filter (input, preds) ->
    let elem, run = gen c input ~stops in
    ( elem,
      fun body ->
        run (fun () ->
            (* Conjuncts arrive cheapest-first; && keeps that order. *)
            let conds =
              List.map
                (fun (pr : P.pred) ->
                  as_bool
                    (compile c
                       ~env:(bind1 pr.P.lambda elem)
                       pr.P.lambda.Ast.body))
                preds
            in
            match conds with
            | [] -> body ()
            | conds ->
              line c "if (%s) {" (String.concat " && " conds);
              push c;
              body ();
              pop c;
              line c "}") )
  | P.Project (input, sel) ->
    let elem, run = gen c input ~stops in
    let env = bind1 sel elem in
    (elem_of_body c ~env sel.Ast.body, run)
  | P.Join j -> gen_join c j ~stops
  | P.Aggregate a -> gen_group c a ~stops
  | P.Sort (input, keys) -> gen_sort c input keys None ~stops
  | P.Top_k { input; keys; limit } ->
    let lim = as_int (compile c ~env:[] limit) in
    gen_sort c input keys (Some lim) ~stops
  | P.Limit (input, n) ->
    let flag = fresh c "st" in
    let elem, run = gen c input ~stops:(stops @ [ flag ]) in
    let lim = as_int (compile c ~env:[] n) in
    let limv = fresh c "lim" and emv = fresh c "em" in
    ( elem,
      fun body ->
        line c "int %s = 0;" flag;
        line c "int64_t %s = 0;" emv;
        line c "int64_t %s = %s;" limv lim;
        line c "if (%s > 0) {" limv;
        push c;
        run (fun () ->
            body ();
            line c "%s++;" emv;
            line c "if (%s >= %s) %s = 1;" emv limv flag);
        pop c;
        line c "}" )
  | P.Offset (input, n) ->
    let elem, run = gen c input ~stops in
    let off = as_int (compile c ~env:[] n) in
    let offv = fresh c "off" and seenv = fresh c "seen" in
    ( elem,
      fun body ->
        line c "int64_t %s = %s;" offv off;
        line c "int64_t %s = 0;" seenv;
        run (fun () ->
            line c "%s++;" seenv;
            line c "if (%s > %s) {" seenv offv;
            push c;
            body ();
            pop c;
            line c "}") )
  | P.Distinct input ->
    let elem, run = gen c input ~stops in
    let parts = List.map (fun (_, t) -> key_part t) (celem_fields elem) in
    let np = List.length parts in
    let pfx = fresh c "d" in
    ( elem,
      fun body ->
        line c "lq_ht %s_h;" pfx;
        line c "lq_ht_init(&%s_h, &A, %d, 256);" pfx np;
        run (fun () ->
            line c "int64_t %s_kp[%d];" pfx np;
            List.iteri
              (fun i part -> line c "%s_kp[%d] = %s;" pfx i part)
              parts;
            line c "int64_t %s_b = %s_h.count;" pfx pfx;
            line c "(void)lq_ht_insert(&%s_h, %s_kp);" pfx pfx;
            line c "if (%s_h.count > %s_b) {" pfx pfx;
            push c;
            body ();
            pop c;
            line c "}") )

and gen_join c (j : P.join) ~stops : celem * ((unit -> unit) -> unit) =
  (* Always a hash join, like Nplan: build the right side into
     attach-order chains, probe from the left. Chain cells store row+1;
     0 marks empty, so lq_grow's zero-fill initializes them. *)
  let lelem, lrun = gen c j.P.left ~stops in
  let relem, rrun = gen c j.P.right ~stops in
  let pfx = fresh c "j" in
  let rkey =
    compile_key_parts c ~env:(bind1 j.P.right_key relem) j.P.right_key.Ast.body
  in
  let lkey =
    compile_key_parts c ~env:(bind1 j.P.left_key lelem) j.P.left_key.Ast.body
  in
  let np = List.length rkey in
  if List.length lkey <> np then unsupported "join key arity mismatch (C)";
  let cols = spill_cols pfx relem in
  let rcur = spf "%s_r" pfx in
  let selem = spill_elem cols ~at:rcur in
  let renv =
    match j.P.result.Ast.params with
    | [ pl; pr ] -> [ (pl, lelem); (pr, selem) ]
    | _ -> unsupported "join result arity (C)"
  in
  let elem = elem_of_body c ~env:renv j.P.result.Ast.body in
  ( elem,
    fun body ->
      line c "lq_ht %s_h;" pfx;
      line c "lq_ht_init(&%s_h, &A, %d, 1024);" pfx np;
      declare_spill c cols;
      line c "int64_t %s_n = 0;" pfx;
      line c "int64_t *%s_head = NULL; int64_t %s_head_cap = 0;" pfx pfx;
      line c "int64_t *%s_tail = NULL; int64_t %s_tail_cap = 0;" pfx pfx;
      line c "int64_t *%s_next = NULL; int64_t %s_next_cap = 0;" pfx pfx;
      rrun (fun () ->
          line c "int64_t %s_kp[%d];" pfx np;
          List.iteri
            (fun i (_, t) -> line c "%s_kp[%d] = %s;" pfx i (key_part t))
            rkey;
          write_spill c cols ~at:(spf "%s_n" pfx);
          line c "int64_t %s_s = lq_ht_insert(&%s_h, %s_kp);" pfx pfx pfx;
          line c
            "%s_head = (int64_t *)lq_grow(&A, %s_head, &%s_head_cap, %s_s, \
             sizeof(int64_t));"
            pfx pfx pfx pfx;
          line c
            "%s_tail = (int64_t *)lq_grow(&A, %s_tail, &%s_tail_cap, %s_s, \
             sizeof(int64_t));"
            pfx pfx pfx pfx;
          line c
            "%s_next = (int64_t *)lq_grow(&A, %s_next, &%s_next_cap, %s_n, \
             sizeof(int64_t));"
            pfx pfx pfx pfx;
          line c "if (%s_head[%s_s] == 0) %s_head[%s_s] = %s_n + 1;" pfx pfx
            pfx pfx pfx;
          line c "else %s_next[%s_tail[%s_s] - 1] = %s_n + 1;" pfx pfx pfx pfx;
          line c "%s_tail[%s_s] = %s_n + 1;" pfx pfx pfx;
          line c "%s_next[%s_n] = 0;" pfx pfx;
          line c "%s_n++;" pfx);
      lrun (fun () ->
          line c "int64_t %s_lkp[%d];" pfx np;
          List.iteri
            (fun i (_, t) -> line c "%s_lkp[%d] = %s;" pfx i (key_part t))
            lkey;
          line c "int64_t %s_fs = lq_ht_find(&%s_h, %s_lkp);" pfx pfx pfx;
          line c "if (%s_fs >= 0) {" pfx;
          push c;
          line c
            "for (int64_t %s_ch = %s_head[%s_fs]; %s_ch != 0%s; %s_ch = \
             %s_next[%s_ch - 1]) {"
            pfx pfx pfx pfx (stops_cond stops) pfx pfx pfx;
          push c;
          line c "const int64_t %s = %s_ch - 1;" rcur pfx;
          body ();
          pop c;
          line c "}";
          pop c;
          line c "}") )

and gen_group c (a : P.aggregate) ~stops : celem * ((unit -> unit) -> unit) =
  let elem_in, run_in = gen c a.P.input ~stops in
  let result =
    match a.P.group_result with
    | Some r -> r
    | None ->
      unsupported "GroupBy without result selector: group objects are not flat"
  in
  let gvar =
    match result.Ast.params with
    | [ p ] -> p
    | _ -> unsupported "group result arity (C)"
  in
  if not a.P.fused then
    unsupported "unfused aggregation (the C backend always fuses)";
  let pfx = fresh c "g" in
  let key_fields =
    compile_key_parts c ~env:(bind1 a.P.key elem_in) a.P.key.Ast.body
  in
  let np = List.length key_fields in
  let slotv = spf "%s_s" pfx in
  (* Key readers for the output phase: parts live in the dense keys
     array, typed as the build side computed them. *)
  let key_reader off (t : cexp) : cexp =
    let part = spf "%s_h.keys[%s * %d + %d]" pfx slotv np off in
    match t with
    | CF _ -> CF (spf "lq_keyf(%s)" part)
    | CB _ -> CB (spf "(%s != 0)" part)
    | CI (_, ty) -> CI (part, ty)
  in
  let gkey_elem =
    match a.P.key.Ast.body with
    | Ast.Record_of _ ->
      CFields (List.mapi (fun off (n, t) -> (n, key_reader off t)) key_fields)
    | _ ->
      let _, t = List.hd key_fields in
      CScalar (key_reader 0 t)
  in
  let counts = spf "%s_cnt" pfx in
  let usv = spf "%s_us" pfx and freshv = spf "%s_fresh" pfx in
  (* Accumulators mirror Nplan's: [decl] emits the state array, [update]
     the per-row fold at slot [usv], the third field reads at [slotv]
     during output. *)
  let make_acc idx (kind : Ast.agg) (sel : Ast.lambda option) =
    let selected () =
      match sel with
      | None -> (
        match celem_fields elem_in with
        | [ (_, t) ] -> t
        | _ -> unsupported "aggregate without selector over a row (C)")
      | Some (l : Ast.lambda) -> (
        match l.Ast.params with
        | [ p ] -> compile c ~env:[ (p, elem_in) ] l.Ast.body
        | _ -> unsupported "aggregate selector arity (C)")
    in
    let av = spf "%s_a%d" pfx idx in
    let decl_arr float () =
      let ty = if float then "double" else "int64_t" in
      line c "%s *%s = NULL; int64_t %s_cap = 0;" ty av av
    in
    let grow float =
      let ty = if float then "double" else "int64_t" in
      line c "%s = (%s *)lq_grow(&A, %s, &%s_cap, %s, sizeof(%s));" av ty av
        av usv ty
    in
    match kind with
    | Ast.Count ->
      ((fun () -> ()), (fun () -> ()), CI (spf "%s[%s]" counts slotv, Vtype.Int))
    | Ast.Sum -> (
      match selected () with
      | CF code ->
        ( decl_arr true,
          (fun () ->
            grow true;
            line c "if (%s) %s[%s] = %s; else %s[%s] += %s;" freshv av usv
              code av usv code),
          CF (spf "%s[%s]" av slotv) )
      | CI (code, Vtype.Int) ->
        ( decl_arr false,
          (fun () ->
            grow false;
            line c "if (%s) %s[%s] = %s; else %s[%s] += %s;" freshv av usv
              code av usv code),
          CI (spf "%s[%s]" av slotv, Vtype.Int) )
      | _ -> unsupported "Sum over non-numeric (C)")
    | Ast.Avg ->
      let code =
        match selected () with
        | CF code -> code
        | CI (code, Vtype.Int) -> spf "((double)%s)" code
        | _ -> unsupported "Avg over non-numeric (C)"
      in
      ( decl_arr true,
        (fun () ->
          grow true;
          line c "if (%s) %s[%s] = %s; else %s[%s] += %s;" freshv av usv code
            av usv code),
        CF (spf "(%s[%s] / (double)%s[%s])" av slotv counts slotv) )
    | Ast.Min | Ast.Max -> (
      let keep = match kind with Ast.Min -> "<" | _ -> ">" in
      match selected () with
      | CF code ->
        let tv = spf "%s_v%d" pfx idx in
        ( decl_arr true,
          (fun () ->
            grow true;
            line c "double %s = %s;" tv code;
            line c "if (%s || lq_fcmp(%s, %s[%s]) %s 0) %s[%s] = %s;" freshv
              tv av usv keep av usv tv),
          CF (spf "%s[%s]" av slotv) )
      | CI (code, Vtype.String) ->
        c.needs_dict <- true;
        let tv = spf "%s_v%d" pfx idx in
        ( decl_arr false,
          (fun () ->
            grow false;
            line c "int64_t %s = %s;" tv code;
            line c
              "if (%s || lq_strcmp(db, dofs, %s, %s[%s]) %s 0) %s[%s] = %s;"
              freshv tv av usv keep av usv tv),
          CI (spf "%s[%s]" av slotv, Vtype.String) )
      | CI (code, ty) ->
        let tv = spf "%s_v%d" pfx idx in
        ( decl_arr false,
          (fun () ->
            grow false;
            line c "int64_t %s = %s;" tv code;
            line c "if (%s || %s %s %s[%s]) %s[%s] = %s;" freshv tv keep av
              usv av usv tv),
          CI (spf "%s[%s]" av slotv, ty) )
      | CB _ -> unsupported "Min/Max over bool (C)")
  in
  let reg = P.Registry.of_aggregate a in
  let accs =
    Array.init (P.Registry.length reg) (fun i ->
        let s = P.Registry.spec reg i in
        make_acc i s.P.agg s.P.sel)
  in
  let on_agg kind src sel =
    match src with
    | Ast.Var v when String.equal v gvar ->
      let _, _, out = accs.(P.Registry.next reg kind sel) in
      out
    | _ -> unsupported "aggregate over a non-group source (C)"
  in
  let body_ast = P.rewrite_gkey gvar result.Ast.body in
  let env = [ (P.gkey_var, gkey_elem) ] in
  let compile_result e = compile c ~env ~on_agg e in
  let elem =
    match body_ast with
    | Ast.Record_of fields ->
      CFields (List.map (fun (n, e) -> (n, compile_result e)) fields)
    | e -> CScalar (compile_result e)
  in
  ( elem,
    fun body ->
      line c "lq_ht %s_h;" pfx;
      line c "lq_ht_init(&%s_h, &A, %d, 256);" pfx np;
      line c "int64_t *%s = NULL; int64_t %s_cap = 0;" counts counts;
      Array.iter (fun (decl, _, _) -> decl ()) accs;
      run_in (fun () ->
          line c "int64_t %s_kp[%d];" pfx np;
          List.iteri
            (fun i (_, t) -> line c "%s_kp[%d] = %s;" pfx i (key_part t))
            key_fields;
          line c "int64_t %s_b = %s_h.count;" pfx pfx;
          line c "int64_t %s = lq_ht_insert(&%s_h, %s_kp);" usv pfx pfx;
          line c "int %s = %s_h.count > %s_b;" freshv pfx pfx;
          line c
            "%s = (int64_t *)lq_grow(&A, %s, &%s_cap, %s, sizeof(int64_t));"
            counts counts counts usv;
          Array.iter (fun (_, update, _) -> update ()) accs;
          line c "%s[%s] += 1;" counts usv);
      line c "for (int64_t %s = 0; %s < %s_h.count%s; %s++) {" slotv slotv pfx
        (stops_cond stops) slotv;
      push c;
      body ();
      pop c;
      line c "}" )

and gen_sort c (input : P.t) keys limit ~stops :
    celem * ((unit -> unit) -> unit) =
  let elem_in, run_in = gen c input ~stops in
  let pfx = fresh c "s" in
  let cols = spill_cols pfx elem_in in
  let rcur = spf "%s_r" pfx in
  let elem = spill_elem cols ~at:rcur in
  (* Per-key extraction columns; the comparator mirrors Nplan's: float
     three-way / dict-decoded string compare / integer-image compare,
     direction sign, then the row-index tiebreak for a total order. *)
  let keycols =
    List.mapi
      (fun i (k : Ast.sort_key) ->
        let t = compile c ~env:(bind1 k.Ast.by elem_in) k.Ast.by.Ast.body in
        let sign = match k.Ast.dir with Ast.Asc -> 1 | Ast.Desc -> -1 in
        let var = spf "%s_k%d" pfx i in
        match t with
        | CF code -> (var, `F, sign, code)
        | CI (code, Vtype.String) ->
          c.needs_dict <- true;
          (var, `S, sign, code)
        | t -> (var, `K, sign, key_part t))
      keys
  in
  (* The comparator is a function over an explicit context struct, so
     the generated object stays reentrant across Domains. *)
  let sctx = spf "lq_sctx_%s" pfx and scmp = spf "lq_scmp_%s" pfx in
  let aux = Buffer.create 256 in
  Buffer.add_string aux (spf "struct %s {\n" sctx);
  Buffer.add_string aux "  const unsigned char *db;\n  const int32_t *dofs;\n";
  List.iter
    (fun (var, kind, _, _) ->
      Buffer.add_string aux
        (spf "  const %s *%s;\n"
           (if kind = `F then "double" else "int64_t")
           var))
    keycols;
  Buffer.add_string aux "};\n";
  Buffer.add_string aux
    (spf "static int %s(void *v, int64_t i, int64_t j) {\n" scmp);
  Buffer.add_string aux
    (spf "  const struct %s *c = (const struct %s *)v;\n  int r;\n" sctx sctx);
  List.iter
    (fun (var, kind, sign, _) ->
      let cmp =
        match kind with
        | `F -> spf "lq_fcmp(c->%s[i], c->%s[j])" var var
        | `S -> spf "lq_strcmp(c->db, c->dofs, c->%s[i], c->%s[j])" var var
        | `K -> spf "lq_icmp(c->%s[i], c->%s[j])" var var
      in
      Buffer.add_string aux
        (spf "  r = %s; if (r) return %s;\n" cmp
           (if sign = 1 then "r" else "-r")))
    keycols;
  Buffer.add_string aux "  return lq_icmp(i, j);\n}\n";
  Buffer.add_buffer c.aux aux;
  ( elem,
    fun body ->
      declare_spill c cols;
      List.iter
        (fun (var, kind, _, _) ->
          let ty = if kind = `F then "double" else "int64_t" in
          line c "%s *%s = NULL; int64_t %s_cap = 0;" ty var var)
        keycols;
      line c "int64_t %s_n = 0;" pfx;
      run_in (fun () ->
          write_spill c cols ~at:(spf "%s_n" pfx);
          List.iter
            (fun (var, kind, _, code) ->
              let ty = if kind = `F then "double" else "int64_t" in
              line c "%s = (%s *)lq_grow(&A, %s, &%s_cap, %s_n, sizeof(%s));"
                var ty var var pfx ty;
              line c "%s[%s_n] = %s;" var pfx code)
            keycols;
          line c "%s_n++;" pfx);
      (* Fill the context struct only now: lq_grow moves column bases. *)
      line c "struct %s %s_ctx;" sctx pfx;
      line c "%s_ctx.db = db; %s_ctx.dofs = dofs;" pfx pfx;
      List.iter
        (fun (var, _, _, _) -> line c "%s_ctx.%s = %s;" pfx var var)
        keycols;
      line c
        "int64_t *%s_idx = (int64_t *)lq_alloc(&A, (%s_n ? %s_n : 1) * \
         (int64_t)sizeof(int64_t));"
        pfx pfx pfx;
      line c "for (int64_t %s_i = 0; %s_i < %s_n; %s_i++) %s_idx[%s_i] = %s_i;"
        pfx pfx pfx pfx pfx pfx pfx;
      line c "lq_sort_idx(&A, %s_idx, %s_n, %s, &%s_ctx);" pfx pfx scmp pfx;
      (match limit with
      | None -> line c "int64_t %s_out = %s_n;" pfx pfx
      | Some lim ->
        (* Bounded heap ≡ full sort + take k under a total order. *)
        line c "int64_t %s_k = %s;" pfx lim;
        line c "if (%s_k < 0) %s_k = 0;" pfx pfx;
        line c "int64_t %s_out = %s_k < %s_n ? %s_k : %s_n;" pfx pfx pfx pfx
          pfx);
      line c "for (int64_t %s_o = 0; %s_o < %s_out%s; %s_o++) {" pfx pfx pfx
        (stops_cond stops) pfx;
      push c;
      line c "const int64_t %s = %s_idx[%s_o];" rcur pfx pfx;
      body ();
      pop c;
      line c "}" )

(* --- the fixed C runtime prelude ------------------------------------ *)

let prelude =
  {|#include <stdint.h>
#include <stddef.h>
#include <string.h>
#include <stdlib.h>
#include <setjmp.h>
#include <math.h>

#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__)
#error "lq_query: row pages are little-endian (Fbuf); big-endian hosts unsupported"
#endif

/* Unaligned little-endian row-page accessors: layouts are packed, so no
   field is guaranteed aligned — memcpy is the portable unaligned read. */
static inline int64_t rd_i32(const unsigned char *p) { int32_t v; memcpy(&v, p, 4); return (int64_t)v; }
static inline int64_t rd_i64(const unsigned char *p) { int64_t v; memcpy(&v, p, 8); return v; }
static inline double rd_f64(const unsigned char *p) { double v; memcpy(&v, p, 8); return v; }
static inline void wr_i32(unsigned char *p, int64_t v) { int32_t x = (int32_t)v; memcpy(p, &x, 4); }
static inline void wr_i64(unsigned char *p, int64_t v) { memcpy(p, &v, 8); }
static inline void wr_f64(unsigned char *p, double v) { memcpy(p, &v, 8); }

static inline int64_t lq_fkey(double x) { int64_t v; memcpy(&v, &x, 8); return v; }
static inline double lq_keyf(int64_t v) { double x; memcpy(&x, &v, 8); return x; }
/* OCaml Float.compare: NaN equals NaN and sorts below every other float. */
static inline int lq_fcmp(double a, double b) {
  return a < b ? -1 : a > b ? 1 : a == b ? 0 : b == b ? -1 : a == a;
}
static inline int lq_icmp(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }
static inline int64_t lq_iabs(int64_t x) { return x < 0 ? -x : x; }

/* Per-call arena: every allocation is tracked and freed at the single
   exit; malloc failure longjmps there and the call returns rc, -1. */
typedef struct { void **ptrs; int64_t n, cap, rc; jmp_buf env; } lq_arena;

static void *lq_alloc(lq_arena *A, int64_t sz) {
  if (sz < 1) sz = 1;
  if (A->n >= A->cap) {
    int64_t nc = A->cap ? A->cap * 2 : 64;
    void **np = (void **)realloc(A->ptrs, (size_t)nc * sizeof(void *));
    if (!np) longjmp(A->env, 1);
    A->ptrs = np; A->cap = nc;
  }
  void *p = malloc((size_t)sz);
  if (!p) longjmp(A->env, 1);
  A->ptrs[A->n++] = p;
  return p;
}

/* Grow a typed array to hold index [need]; fresh space is zeroed (the
   join chain heads rely on that). The old buffer stays in the arena
   until the exit free. */
static void *lq_grow(lq_arena *A, void *arr, int64_t *cap, int64_t need, int64_t esz) {
  if (need < *cap) return arr;
  int64_t nc = *cap ? *cap : 512;
  while (nc <= need) nc *= 2;
  void *p = lq_alloc(A, nc * esz);
  if (arr) memcpy(p, arr, (size_t)(*cap * esz));
  memset((char *)p + *cap * esz, 0, (size_t)((nc - *cap) * esz));
  *cap = nc;
  return p;
}

/* OCaml integer division: a zero divisor leaves through the arena exit
   with rc -2 (the caller raises Division_by_zero); min / -1 wraps
   instead of trapping. */
static inline int64_t lq_idiv(lq_arena *A, int64_t a, int64_t b) {
  if (b == 0) { A->rc = -2; longjmp(A->env, 1); }
  return b == -1 ? (int64_t)(0 - (uint64_t)a) : a / b;
}
static inline int64_t lq_imod(lq_arena *A, int64_t a, int64_t b) {
  if (b == 0) { A->rc = -2; longjmp(A->env, 1); }
  return b == -1 ? 0 : a % b;
}

static void lq_arena_free(lq_arena *A) {
  for (int64_t i = 0; i < A->n; i++) free(A->ptrs[i]);
  free(A->ptrs);
  A->ptrs = NULL; A->n = 0; A->cap = 0;
}

/* Byte-lexicographic dictionary-code compare = OCaml String.compare. */
static int lq_strcmp(const unsigned char *db, const int32_t *dofs, int64_t a, int64_t b) {
  if (a == b) return 0;
  int32_t a0 = dofs[a], a1 = dofs[a + 1], b0 = dofs[b], b1 = dofs[b + 1];
  int64_t la = a1 - a0, lb = b1 - b0, m = la < lb ? la : lb;
  int r = memcmp(db + a0, db + b0, (size_t)m);
  if (r) return r < 0 ? -1 : 1;
  return la < lb ? -1 : (la > lb ? 1 : 0);
}

/* Scalar.like_match, verbatim semantics: % any run, _ one char,
   backtracking. [trail] treats pattern end as an implicit trailing %;
   [lead] tries every start offset — the StartsWith/EndsWith/Contains
   affixes without runtime pattern concatenation. */
static int lq_like_go(const char *p, int64_t np, const char *s, int64_t ns,
                      int64_t pi, int64_t si, int trail) {
  if (pi == np) return trail ? 1 : si == ns;
  char ch = p[pi];
  if (ch == '%') {
    for (int64_t j = si; j <= ns; j++)
      if (lq_like_go(p, np, s, ns, pi + 1, j, trail)) return 1;
    return 0;
  }
  if (si >= ns) return 0;
  if (ch == '_' || ch == s[si]) return lq_like_go(p, np, s, ns, pi + 1, si + 1, trail);
  return 0;
}

static int lq_like(const char *p, int64_t np, int lead, int trail,
                   const char *s, int64_t ns) {
  if (lead) {
    for (int64_t j = 0; j <= ns; j++)
      if (lq_like_go(p, np, s + j, ns - j, 0, 0, trail)) return 1;
    return 0;
  }
  return lq_like_go(p, np, s, ns, 0, 0, trail);
}

static int lq_like_code(const unsigned char *db, const int32_t *dofs,
                        const char *p, int64_t np, int lead, int trail, int64_t sc) {
  int32_t a = dofs[sc], b = dofs[sc + 1];
  return lq_like(p, np, lead, trail, (const char *)db + a, (int64_t)(b - a));
}

static int lq_like_dyn(const unsigned char *db, const int32_t *dofs,
                       int64_t pc, int lead, int trail, int64_t sc) {
  int32_t a = dofs[pc], b = dofs[pc + 1];
  return lq_like_code(db, dofs, (const char *)db + a, (int64_t)(b - a), lead, trail, sc);
}

/* Date.year: Hinnant civil-from-days, year component only. */
static int64_t lq_year(int64_t z) {
  z += 719468;
  int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  int64_t doe = z - era * 146097;
  int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t y = yoe + era * 400;
  int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  int64_t mp = (5 * doy + 2) / 153;
  int64_t m = mp < 10 ? mp + 3 : mp - 9;
  return m <= 2 ? y + 1 : y;
}

/* Flat open-addressing hash table on composite int64 keys — dense slots
   0,1,2,... in first-touch insertion order, exactly like the OCaml Ht,
   so grouped/joined/distinct output order is identical regardless of
   the hash function. Buckets hold slot+1; 0 is empty. */
typedef struct {
  lq_arena *A;
  int np;
  int64_t cap, count, kcap;
  int64_t *tab;   /* cap buckets */
  int64_t *keys;  /* kcap * np dense key parts */
} lq_ht;

static uint64_t lq_ht_hash(const int64_t *parts, int np) {
  uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < np; i++) {
    h ^= (uint64_t)parts[i];
    h *= 1099511628211ULL;
    h ^= h >> 29;
  }
  return h;
}

static void lq_ht_init(lq_ht *h, lq_arena *A, int np, int64_t hint) {
  int64_t cap = 16;
  while (cap < hint * 2) cap <<= 1;
  h->A = A; h->np = np; h->cap = cap; h->count = 0; h->kcap = 0;
  h->tab = (int64_t *)lq_alloc(A, cap * (int64_t)sizeof(int64_t));
  memset(h->tab, 0, (size_t)cap * sizeof(int64_t));
  h->keys = NULL;
}

static int lq_ht_eq(const lq_ht *h, int64_t slot, const int64_t *parts) {
  const int64_t *k = h->keys + slot * h->np;
  for (int i = 0; i < h->np; i++)
    if (k[i] != parts[i]) return 0;
  return 1;
}

static int64_t lq_ht_find(const lq_ht *h, const int64_t *parts) {
  uint64_t mask = (uint64_t)h->cap - 1;
  uint64_t b = lq_ht_hash(parts, h->np) & mask;
  for (;;) {
    int64_t v = h->tab[b];
    if (v == 0) return -1;
    if (lq_ht_eq(h, v - 1, parts)) return v - 1;
    b = (b + 1) & mask;
  }
}

static void lq_ht_rehash(lq_ht *h) {
  int64_t ncap = h->cap * 2;
  int64_t *nt = (int64_t *)lq_alloc(h->A, ncap * (int64_t)sizeof(int64_t));
  memset(nt, 0, (size_t)ncap * sizeof(int64_t));
  uint64_t mask = (uint64_t)ncap - 1;
  for (int64_t s = 0; s < h->count; s++) {
    uint64_t b = lq_ht_hash(h->keys + s * h->np, h->np) & mask;
    while (nt[b] != 0) b = (b + 1) & mask;
    nt[b] = s + 1;
  }
  h->tab = nt; /* the old bucket array stays in the arena */
  h->cap = ncap;
}

static int64_t lq_ht_insert(lq_ht *h, const int64_t *parts) {
  int64_t f = lq_ht_find(h, parts);
  if (f >= 0) return f;
  if ((h->count + 1) * 2 > h->cap) lq_ht_rehash(h);
  if (h->count >= h->kcap) {
    int64_t nk = h->kcap ? h->kcap * 2 : 256;
    int64_t *nkeys = (int64_t *)lq_alloc(h->A, nk * h->np * (int64_t)sizeof(int64_t));
    if (h->keys) memcpy(nkeys, h->keys, (size_t)(h->count * h->np) * sizeof(int64_t));
    h->keys = nkeys; h->kcap = nk;
  }
  memcpy(h->keys + h->count * h->np, parts, (size_t)h->np * sizeof(int64_t));
  uint64_t mask = (uint64_t)h->cap - 1;
  uint64_t b = lq_ht_hash(parts, h->np) & mask;
  while (h->tab[b] != 0) b = (b + 1) & mask;
  h->tab[b] = h->count + 1;
  return h->count++;
}

/* Merge sort over an index array; the comparators end with the index
   tiebreak, so the order is total and stability is moot. */
typedef int (*lq_cmp_fn)(void *, int64_t, int64_t);

static void lq_msort(int64_t *a, int64_t *t, int64_t lo, int64_t hi,
                     lq_cmp_fn cmp, void *ctx) {
  if (hi - lo < 2) return;
  int64_t mid = lo + (hi - lo) / 2;
  lq_msort(a, t, lo, mid, cmp, ctx);
  lq_msort(a, t, mid, hi, cmp, ctx);
  int64_t i = lo, j = mid, k = lo;
  while (i < mid && j < hi) t[k++] = cmp(ctx, a[i], a[j]) <= 0 ? a[i++] : a[j++];
  while (i < mid) t[k++] = a[i++];
  while (j < hi) t[k++] = a[j++];
  memcpy(a + lo, t + lo, (size_t)(hi - lo) * sizeof(int64_t));
}

static void lq_sort_idx(lq_arena *A, int64_t *idx, int64_t n, lq_cmp_fn cmp, void *ctx) {
  if (n < 2) return;
  int64_t *t = (int64_t *)lq_alloc(A, n * (int64_t)sizeof(int64_t));
  lq_msort(idx, t, 0, n, cmp, ctx);
}

|}

let header =
  {|int64_t lq_query(const unsigned char **srcs, const int64_t *nrows,
                 const int64_t *ip, const double *fp,
                 const unsigned char *db, const int32_t *dofs,
                 unsigned char *out, int64_t cap)
{
  lq_arena A; A.ptrs = NULL; A.n = 0; A.cap = 0; A.rc = -1;
  int64_t lq_total = 0;
  if (setjmp(A.env)) { lq_arena_free(&A); return A.rc; }
  (void)srcs; (void)nrows; (void)ip; (void)fp; (void)db; (void)dofs;
|}

let footer = {|  lq_arena_free(&A);
  return lq_total;
}
|}

(* --- entry points ---------------------------------------------------- *)

let emit_plan cat (plan : P.t) : program =
  let c =
    {
      body = Buffer.create 4096;
      aux = Buffer.create 256;
      indent = 1;
      freshc = 0;
      islots = [];
      fslots = [];
      scans = [];
      needs_dict = false;
      cat;
    }
  in
  let elem, run = gen c plan ~stops:[] in
  let out_exprs = celem_fields elem in
  let out_fields = List.map (fun (n, t) -> (n, vty_of t)) out_exprs in
  let out_layout =
    try Layout.make out_fields
    with Invalid_argument msg -> unsupported "result layout: %s" msg
  in
  let width = Layout.row_width out_layout in
  run (fun () ->
      line c "if (lq_total < cap) {";
      push c;
      line c "unsigned char *lq_o = out + lq_total * %d;" width;
      List.iteri
        (fun i (_, t) ->
          let f = Layout.field_at out_layout i in
          match f.Layout.ftype with
          | Ftype.F64 ->
            line c "wr_f64(lq_o + %d, %s);" f.Layout.offset (as_float t)
          | Ftype.I64 ->
            line c "wr_i64(lq_o + %d, %s);" f.Layout.offset (as_int t)
          | Ftype.I32 | Ftype.Date32 | Ftype.Str32 ->
            line c "wr_i32(lq_o + %d, %s);" f.Layout.offset (as_int t)
          | Ftype.Bool8 ->
            line c "lq_o[%d] = (unsigned char)(%s != 0);" f.Layout.offset
              (as_int t))
        out_exprs;
      pop c;
      line c "}";
      line c "lq_total++;");
  let scan_tables = List.rev c.scans in
  let src = Buffer.create (Buffer.length c.body + 8192) in
  Buffer.add_string src
    (spf
       "/* generated by lqcg (ABI v%d): scans [%s], %d int registers, %d \
        float registers */\n"
       abi_version
       (String.concat "; " scan_tables)
       (List.length c.islots) (List.length c.fslots));
  Buffer.add_string src prelude;
  Buffer.add_buffer src c.aux;
  Buffer.add_char src '\n';
  Buffer.add_string src header;
  Buffer.add_buffer src c.body;
  Buffer.add_string src footer;
  {
    c_source = Buffer.contents src;
    scan_tables;
    int_params = List.rev_map fst c.islots;
    float_params = List.rev_map fst c.fslots;
    out_fields;
    out_scalar = (match elem with CScalar _ -> true | _ -> false);
    needs_dict = c.needs_dict;
  }

let stub_source reason =
  spf
    "/* lq_query: no native C form for this plan.\n\
    \   reason: %s\n\
    \   The interpreted native program serves this shape. */\n\
     typedef int lq_unused;\n"
    reason

(* The listing is total: a plan with no C form renders as a stub. *)
let listing program =
  match program () with
  | p -> p.c_source
  | exception
      ( Unsupported_c msg
      | Lq_catalog.Engine_intf.Unsupported msg
      | Lq_expr.Typecheck.Type_error msg
      | Invalid_argument msg
      | Failure msg ) ->
    stub_source msg
  | exception Catalog.Not_flat t -> stub_source (t ^ ": source is not flat")
  (* A plan whose scans name occurrence-renamed (staged/overridden)
     sources — the hybrid and parallel engines show their offloaded
     remainder through this listing — has no catalog-backed C form. *)
  | exception Lq_expr.Eval.Unbound_source t -> stub_source ("unbound source " ^ t)
  | exception Not_found -> stub_source "plan element not found"

let emit_lowered cat plan = listing (fun () -> emit_plan cat plan)

let emit cat (q : Ast.query) : string =
  listing (fun () -> emit_plan cat (Lq_plan.Lower.lower cat q))
