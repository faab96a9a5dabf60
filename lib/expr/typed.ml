(* Typed scalar expressions (DESIGN.md §3c): [of_expr] types a lambda
   body once, and [Nexpr] (closures), [Codegen_c] (C text) and the vector
   engine (column arrays) are plain emitters over the tree. Every node
   carries its type; int→float promotion is an explicit [To_float]; each
   operation whose semantics depend on its operand types is its own node.
   A [Param]'s type is the one register it is bound into: a double for
   [Float], an integer image (int, day count, 0/1, dictionary code) for
   the other scalars. *)

open Lq_value

type cmp = Eq | Ne | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul | Div | Mod
type 'n t = { node : 'n node; ty : Vtype.t }

and 'n node =
  | Const of Value.t
  | Param of string
  | Var of string  (** a scalar-bound lambda variable *)
  | Field of string * string  (** [v.f] of a record-bound variable *)
  | Nested of 'n  (** an aggregate or sub-query the caller compiled *)
  | To_float of 'n t
  | Neg of 'n t
  | Not of 'n t
  | And of 'n t * 'n t
  | Or of 'n t * 'n t
  | Arith of arith * 'n t * 'n t  (** [Add]/[Sub]/[Mul] on ints; all five on floats *)
  | Int_div of 'n t * 'n t  (** truncating; a zero divisor faults *)
  | Int_mod of 'n t * 'n t  (** sign of the dividend; a zero divisor faults *)
  | Cmp of cmp * 'n t * 'n t
      (** integer images: ints, dates, bools, and the dictionary codes of
          strings under [Eq]/[Ne] *)
  | Fcmp of cmp * 'n t * 'n t  (** [Float.compare]: NaN equals NaN, below every float *)
  | Scmp of cmp * 'n t * 'n t  (** ordering of decoded strings *)
  | If of 'n t * 'n t * 'n t
  | Call of Ast.func * 'n t list

let error = Typecheck.error

let test = function
  | Eq -> fun c -> c = 0
  | Ne -> fun c -> c <> 0
  | Lt -> fun c -> c < 0
  | Le -> fun c -> c <= 0
  | Gt -> fun c -> c > 0
  | Ge -> fun c -> c >= 0

let int_arith = function
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Div -> ( / )
  | Mod -> fun a b -> a mod b

let float_arith = function
  | Add -> ( +. )
  | Sub -> ( -. )
  | Mul -> ( *. )
  | Div -> ( /. )
  | Mod -> Float.rem

(* A value of type [own] binds into a register of representation [rep]:
   ints into floats, any integer image into any integer image. *)
let binds_as own (rep : Vtype.t) =
  let has_int_image (ty : Vtype.t) =
    match ty with Vtype.Int | Vtype.Date | Vtype.Bool | Vtype.String -> true | _ -> false
  in
  if Vtype.equal rep Vtype.Float then Vtype.is_numeric own
  else has_int_image rep && has_int_image own

(* A bound value's register images. *)
let int_image ~intern (v : Value.t) =
  match v with
  | Value.Int i | Value.Date i -> Some i
  | Value.Bool b -> Some (Bool.to_int b)
  | Value.Str s -> Some (intern s)
  | _ -> None

let float_image (v : Value.t) =
  match v with Value.Float f -> Some f | Value.Int i -> Some (float_of_int i) | _ -> None

(* The LIKE pattern a [StartsWith]/[EndsWith]/[Contains]/[Like] pattern
   argument stands for. *)
let like_pattern (f : Ast.func) s =
  match f with
  | Ast.Starts_with -> s ^ "%"
  | Ast.Ends_with -> "%" ^ s
  | Ast.Contains -> "%" ^ s ^ "%"
  | _ -> s

(* The built-ins over integer images (strings as dictionary codes),
   unary ones ignoring their second argument; [Abs] of a float is
   [Float.abs]. *)
let call_image ~decode ~intern (f : Ast.func) =
  match f with
  | Ast.Starts_with | Ast.Ends_with | Ast.Contains | Ast.Like ->
    fun s p -> Bool.to_int (Scalar.like_match ~pattern:(like_pattern f (decode p)) (decode s))
  | Ast.Lower -> fun s _ -> intern (String.lowercase_ascii (decode s))
  | Ast.Upper -> fun s _ -> intern (String.uppercase_ascii (decode s))
  | Ast.Length -> fun s _ -> String.length (decode s)
  | Ast.Abs -> fun x _ -> abs x
  | Ast.Year -> fun d _ -> Date.year d
  | Ast.Add_days -> fun d n -> d + n

(* A sub-expression before its context is known: a parameter stays
   untyped (with its own type, when known) until a sibling or its
   position fixes its representation. *)
type 'n pre = T of 'n t | P of string * Vtype.t option

(* The parameter rule: take the sibling's representation when the own
   type binds into it, else keep the own type (the sibling is promoted).
   An unknown type takes the sibling's; two unknown siblings default to
   float, or are refused under [/] and [%]. *)
let place ~like = function
  | T t -> t
  | P (name, own) ->
    let ty = match own with Some own when not (binds_as own like) -> own | _ -> like in
    { node = Param name; ty }

(* A position with no sibling: only an unknown parameter adopts [like]. *)
let exact ~like = function
  | T t -> t
  | P (name, own) -> { node = Param name; ty = Option.value own ~default:like }

let pair ~default a b =
  match (a, b) with
  | T x, _ -> (x, place ~like:x.ty b)
  | _, T y -> (place ~like:y.ty a, y)
  | P (_, Some ta), P (_, Some tb) ->
    let like = if binds_as ta tb then tb else ta in
    (place ~like a, place ~like b)
  | P (_, Some like), _ | _, P (_, Some like) -> (place ~like a, place ~like b)
  | P _, P _ -> (
    match default with
    | Some like -> (place ~like a, place ~like b)
    | None -> error "integer-or-float division of two parameters")

let to_float t = if Vtype.equal t.ty Vtype.Float then t else { node = To_float t; ty = Vtype.Float }

let scalar what ty =
  if not (Vtype.is_scalar ty) then error "%s has non-scalar type %a" what Vtype.pp ty;
  ty

let arith op x y =
  match Typecheck.numeric_join x.ty y.ty with
  | Vtype.Float -> { node = Arith (op, to_float x, to_float y); ty = Vtype.Float }
  | ty -> (
    match op with
    | Div -> { node = Int_div (x, y); ty }
    | Mod -> { node = Int_mod (x, y); ty }
    | _ -> { node = Arith (op, x, y); ty })

let compare op x y =
  Typecheck.comparable x.ty y.ty;
  let node =
    match (scalar "comparison operand" x.ty, y.ty) with
    | Vtype.String, _ -> if op = Eq || op = Ne then Cmp (op, x, y) else Scmp (op, x, y)
    | Vtype.Float, _ | _, Vtype.Float -> Fcmp (op, to_float x, to_float y)
    | _ -> Cmp (op, x, y)
  in
  { node; ty = Vtype.Bool }

(* How a lambda variable is bound: to a scalar, or to an element whose
   field types the function looks up. *)
type var = Scalar of Vtype.t | Element of (string -> Vtype.t option)

(* [var] types the lambda's variables. [param_type] gives a parameter's
   own type when it is known. [nested] compiles each [Agg] and [Subquery],
   in pre-order, and returns its type. Raises [Typecheck.Type_error] on
   anything without a flat typed form. *)
let of_expr ~param_type ~var ~nested expr =
  let rec go (e : Ast.expr) : _ pre =
    match e with
    | Ast.Const v -> (
      match Value.type_of v with
      | Some ty when Vtype.is_scalar ty -> T { node = Const v; ty }
      | _ -> error "constant %s has no flat type" (Value.to_string v))
    | Ast.Param name -> P (name, Option.map (scalar name) (param_type name))
    | Ast.Var name -> (
      match var name with
      | Some (Scalar ty) -> T { node = Var name; ty = scalar name ty }
      | Some (Element _) -> error "whole-element use of %S (flat data only)" name
      | None -> error "unbound variable %S" name)
    | Ast.Member (Ast.Var name, field) -> (
      match var name with
      | Some (Element fields) -> (
        match fields field with
        | Some ty -> T { node = Field (name, field); ty = scalar field ty }
        | None -> error "element has no member %S" field)
      | Some (Scalar _) -> error "member %S of a scalar" field
      | None -> error "unbound variable %S" name)
    | Ast.Member (_, field) -> error "nested member access .%s (flat data only)" field
    | Ast.Unop (Ast.Neg, e) ->
      let x = exact ~like:Vtype.Int (go e) in
      if not (Vtype.is_numeric x.ty) then error "negation of non-numeric %a" Vtype.pp x.ty;
      T { node = Neg x; ty = x.ty }
    | Ast.Unop (Ast.Not, e) -> T { node = Not (bool e); ty = Vtype.Bool }
    | Ast.Binop (Ast.And, a, b) ->
      let a = bool a in
      T { node = And (a, bool b); ty = Vtype.Bool }
    | Ast.Binop (Ast.Or, a, b) ->
      let a = bool a in
      T { node = Or (a, bool b); ty = Vtype.Bool }
    | Ast.Binop (op, a, b) -> (
      let a = go a in
      let arith op default =
        let x, y = pair ~default a (go b) in
        T (arith op x y)
      and compare op =
        let x, y = pair ~default:(Some Vtype.Float) a (go b) in
        T (compare op x y)
      in
      match op with
      | Ast.Add -> arith Add (Some Vtype.Float)
      | Ast.Sub -> arith Sub (Some Vtype.Float)
      | Ast.Mul -> arith Mul (Some Vtype.Float)
      | Ast.Div -> arith Div None
      | Ast.Mod -> arith Mod None
      | Ast.Eq -> compare Eq
      | Ast.Ne -> compare Ne
      | Ast.Lt -> compare Lt
      | Ast.Le -> compare Le
      | Ast.Gt -> compare Gt
      | Ast.Ge -> compare Ge
      | Ast.And | Ast.Or -> assert false)
    | Ast.If (c, a, b) ->
      let c = bool c in
      let a = go a in
      let x, y = pair ~default:(Some Vtype.Int) a (go b) in
      if Vtype.equal x.ty y.ty then T { node = If (c, x, y); ty = x.ty }
      else if Vtype.is_numeric x.ty && Vtype.is_numeric y.ty then
        T { node = If (c, to_float x, to_float y); ty = Vtype.Float }
      else error "if branches have types %a and %a" Vtype.pp x.ty Vtype.pp y.ty
    | Ast.Call (f, args) ->
      let args =
        match Typecheck.signature f with
        | Some (expected, _) when List.compare_lengths expected args = 0 ->
          List.map2 (fun e like -> place ~like (go e)) args expected
        | _ -> List.map (fun e -> exact ~like:Vtype.Int (go e)) args
      in
      T { node = Call (f, args); ty = Typecheck.call_result f (List.map (fun a -> a.ty) args) }
    | Ast.Agg _ | Ast.Subquery _ ->
      let n, ty = nested e in
      T { node = Nested n; ty = scalar "nested expression" ty }
    | Ast.Record_of _ -> error "object construction inside a flat scalar expression"
  and bool e =
    let x = exact ~like:Vtype.Bool (go e) in
    if not (Vtype.equal x.ty Vtype.Bool) then error "expected bool, found %a" Vtype.pp x.ty;
    x
  in
  exact ~like:Vtype.Int (go expr)
