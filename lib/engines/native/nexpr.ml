open Lq_value
module Ast = Lq_expr.Ast
module Typed = Lq_expr.Typed
module Date = Lq_value.Date
module Dict = Lq_storage.Dict
module Rowstore = Lq_storage.Rowstore
module Engine_intf = Lq_catalog.Engine_intf

let unsupported = Engine_intf.unsupported

type cursor = { store : Rowstore.t; cell : int ref }

type t =
  | I of (unit -> int) * Vtype.t
  | F of (unit -> float)
  | B of (unit -> bool)

type elem =
  | Row of cursor * (string * int) list
  | Fields of (string * t) list
  | Scalar of t

let max_params = 64

type ctx = {
  dict : Dict.t;
  trace : (int -> unit) option;
  pints : int array;
  pfloats : float array;
  mutable int_slots : (string * int) list;
  mutable float_slots : (string * int) list;
}

let ctx ?trace ~dict () =
  {
    dict;
    trace;
    pints = Array.make max_params 0;
    pfloats = Array.make max_params 0.0;
    int_slots = [];
    float_slots = [];
  }

let dict c = c.dict

let alloc_slot slots name =
  match List.assoc_opt name !slots with
  | Some slot -> slot
  | None ->
    let slot = List.length !slots in
    if slot >= max_params then unsupported "too many query parameters";
    slots := (name, slot) :: !slots;
    slot

let int_slot c name =
  let cell = ref c.int_slots in
  let slot = alloc_slot cell name in
  c.int_slots <- !cell;
  slot

let float_slot c name =
  let cell = ref c.float_slots in
  let slot = alloc_slot cell name in
  c.float_slots <- !cell;
  slot

let bind_params c params =
  let int_register = Engine_intf.int_register c.dict params in
  List.iter (fun (name, slot) -> c.pints.(slot) <- int_register name) c.int_slots;
  List.iter
    (fun (name, slot) -> c.pfloats.(slot) <- Engine_intf.float_register params name)
    c.float_slots

(* ------------------------------------------------------------------ *)

let vty = function
  | I (_, ty) -> ty
  | F _ -> Vtype.Float
  | B _ -> Vtype.Bool

let as_int = function
  | I (f, _) -> f
  | B f -> fun () -> if f () then 1 else 0
  | F _ -> unsupported "expected an integer-typed native expression"

let as_float = function
  | F f -> f
  | I _ | B _ -> unsupported "expected a float-typed native expression"

let as_bool = function
  | B f -> f
  | I (f, _) -> fun () -> f () <> 0
  | F _ -> unsupported "expected bool, found float"

let key_part = function
  | I (f, _) -> f
  | B f -> fun () -> if f () then 1 else 0
  | F f -> fun () -> Int64.to_int (Int64.bits_of_float (f ()))

(* Hash-key images. A float's 64 bits do not fit one 63-bit OCaml int
   (truncation folds the sign bit away, conflating x and -x), so float
   keys contribute two parts. *)
let key_parts = function
  | I (f, _) -> [ f ]
  | B f -> [ (fun () -> if f () then 1 else 0) ]
  | F f ->
    [
      (fun () -> Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float (f ())) 32));
      (fun () -> Int64.to_int (Int64.logand (Int64.bits_of_float (f ())) 0xFFFFFFFFL));
    ]

let float_of_key_parts ~hi ~lo =
  Int64.float_of_bits
    (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

let to_value c = function
  | I (f, Vtype.Int) -> fun () -> Value.Int (f ())
  | I (f, Vtype.Date) -> fun () -> Value.Date (f ())
  | I (f, Vtype.Bool) -> fun () -> Value.Bool (f () <> 0)
  | I (f, Vtype.String) -> fun () -> Value.Str (Dict.get c.dict (f ()))
  | I (f, _) -> fun () -> Value.Int (f ())
  | F f -> fun () -> Value.Float (f ())
  | B f -> fun () -> Value.Bool (f ())

let reader_of ctx cursor col =
  let f = Lq_storage.Layout.field_at (Rowstore.layout cursor.store) col in
  let cell = cursor.cell in
  match f.Lq_storage.Layout.ftype with
  | Lq_storage.Ftype.F64 ->
    let r = Rowstore.float_reader ?trace:ctx.trace cursor.store col in
    F (fun () -> r !cell)
  | _ ->
    let r = Rowstore.int_reader ?trace:ctx.trace cursor.store col in
    I ((fun () -> r !cell), f.Lq_storage.Layout.vty)

let elem_to_value c = function
  | Scalar t -> to_value c t
  | Fields fields ->
    let names = Array.of_list (List.map fst fields) in
    let boxed = Array.of_list (List.map (fun (_, t) -> to_value c t) fields) in
    fun () -> Value.Record (Array.mapi (fun i f -> (names.(i), f ())) boxed)
  | Row (cursor, cols) ->
    (* Per-column readers with offsets resolved once (the §5.1 "return a
       pointer and decode in the caller" boundary). *)
    let cell = cursor.cell in
    let names = Array.of_list (List.map fst cols) in
    let readers =
      Array.of_list
        (List.map (fun (_, col) -> Rowstore.value_reader cursor.store col) cols)
    in
    fun () ->
      Value.Record (Array.mapi (fun i r -> (names.(i), r !cell)) readers)

let row_fields c cursor cols =
  List.map (fun (name, col) -> (name, reader_of c cursor col)) cols

let scalar_field = "__val"

let elem_fields c = function
  | Row (cursor, cols) -> row_fields c cursor cols
  | Fields fields -> fields
  | Scalar t -> [ (scalar_field, t) ]

let var_type env name =
  let field_type assoc ty f = Option.map ty (List.assoc_opt f assoc) in
  Option.map
    (function
      | Scalar t -> Typed.Scalar (vty t)
      | Fields fields -> Typed.Element (field_type fields vty)
      | Row (cursor, cols) ->
        let layout = Rowstore.layout cursor.store in
        Typed.Element (field_type cols (fun col -> (Lq_storage.Layout.field_at layout col).vty)))
    (List.assoc_opt name env)

let rec emit c env (e : t Typed.t) : t =
  let int e = as_int (emit c env e) in
  let bool e = as_bool (emit c env e) in
  let float e = as_float (emit c env e) in
  let ints op a b =
    let fa = int a in
    let fb = int b in
    I ((fun () -> op (fa ()) (fb ())), Vtype.Int)
  in
  let floats op a b =
    let fa = float a in
    let fb = float b in
    F (fun () -> op (fa ()) (fb ()))
  in
  match e.node with
  | Typed.Const (Value.Float f) -> F (fun () -> f)
  | Typed.Const (Value.Bool b) -> B (fun () -> b)
  | Typed.Const v ->
    let i = Option.get (Typed.int_image ~intern:(Dict.intern c.dict) v) in
    I ((fun () -> i), e.ty)
  | Typed.Param name -> (
    match e.ty with
    | Vtype.Float ->
      let slot = float_slot c name in
      F (fun () -> c.pfloats.(slot))
    | Vtype.Bool ->
      let slot = int_slot c name in
      B (fun () -> c.pints.(slot) <> 0)
    | ty ->
      let slot = int_slot c name in
      I ((fun () -> c.pints.(slot)), ty))
  | Typed.Var name -> (
    match List.assoc name env with Scalar t -> t | Row _ | Fields _ -> assert false)
  | Typed.Field (name, field) -> (
    match List.assoc name env with
    | Row (cursor, cols) -> reader_of c cursor (List.assoc field cols)
    | Fields fields -> List.assoc field fields
    | Scalar _ -> assert false)
  | Typed.Nested t -> t
  | Typed.To_float x ->
    let f = int x in
    F (fun () -> float_of_int (f ()))
  | Typed.Neg x when Vtype.equal x.ty Vtype.Float ->
    let f = float x in
    F (fun () -> -.f ())
  | Typed.Neg x ->
    let f = int x in
    I ((fun () -> -f ()), Vtype.Int)
  | Typed.Not x ->
    let f = bool x in
    B (fun () -> not (f ()))
  | Typed.And (a, b) ->
    let fa = bool a in
    let fb = bool b in
    B (fun () -> fa () && fb ())
  | Typed.Or (a, b) ->
    let fa = bool a in
    let fb = bool b in
    B (fun () -> fa () || fb ())
  | Typed.Arith (op, a, b) when Vtype.equal e.ty Vtype.Float -> floats (Typed.float_arith op) a b
  | Typed.Arith (op, a, b) -> ints (Typed.int_arith op) a b
  (* OCaml's [/] and [mod] raise [Division_by_zero] on a zero divisor:
     the fault every flat tier reports. *)
  | Typed.Int_div (a, b) -> ints ( / ) a b
  | Typed.Int_mod (a, b) -> ints ( mod ) a b
  | Typed.Cmp (Typed.Eq, a, b) ->
    let fa = int a in
    let fb = int b in
    B (fun () -> fa () = fb ())
  | Typed.Cmp (op, a, b) ->
    let test = Typed.test op and fa = int a in
    let fb = int b in
    B (fun () -> test (Int.compare (fa ()) (fb ())))
  | Typed.Fcmp (op, a, b) ->
    let test = Typed.test op and fa = float a in
    let fb = float b in
    B (fun () -> test (Float.compare (fa ()) (fb ())))
  | Typed.Scmp (op, a, b) ->
    (* Dictionary codes are not order-preserving: ordering decodes. *)
    let test = Typed.test op and d = c.dict and fa = int a in
    let fb = int b in
    B (fun () -> test (String.compare (Dict.get d (fa ())) (Dict.get d (fb ()))))
  | Typed.If (cond, a, b) -> (
    let fc = bool cond in
    let ta = emit c env a in
    let tb = emit c env b in
    match e.ty with
    | Vtype.Float ->
      let f1 = as_float ta and f2 = as_float tb in
      F (fun () -> if fc () then f1 () else f2 ())
    | Vtype.Bool ->
      let f1 = as_bool ta and f2 = as_bool tb in
      B (fun () -> if fc () then f1 () else f2 ())
    | ty ->
      let f1 = as_int ta and f2 = as_int tb in
      I ((fun () -> if fc () then f1 () else f2 ()), ty))
  | Typed.Call (Ast.Abs, [ x ]) when Vtype.equal x.ty Vtype.Float ->
    let f = float x in
    F (fun () -> Float.abs (f ()))
  | Typed.Call (f, args) -> (
    let g = Typed.call_image ~decode:(Dict.get c.dict) ~intern:(Dict.intern c.dict) f in
    match List.map int args with
    | [ fa ] -> I ((fun () -> g (fa ()) 0), e.ty)
    | [ fa; fb ] -> I ((fun () -> g (fa ()) (fb ())), e.ty)
    | _ -> unsupported "call %s (native)" (Lq_expr.Pretty.func_name f))

let compile c ~env ~on_agg ~on_subquery expr =
  let nested (e : Ast.expr) =
    let t =
      match e with
      | Ast.Agg (kind, src, sel) -> on_agg kind src sel
      | Ast.Subquery q -> on_subquery q
      | _ -> assert false
    in
    (t, vty t)
  in
  match
    Typed.of_expr ~param_type:Lq_expr.Shape.const_type
      ~var:(var_type env)
      ~nested expr
  with
  | typed -> emit c env typed
  | exception Lq_expr.Typecheck.Type_error msg -> unsupported "%s (native)" msg
