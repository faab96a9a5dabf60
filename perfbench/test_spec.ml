(* BENCHMARK.json must list the workloads and metrics the benchmark
   program runs and prints: the same names, in the same order, with the
   same units. *)

open Perfbench

let json = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all

let find_from s i sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go i

(* The text of a top-level section: from its key to the next top-level
   key, or the end of the file. *)
let section key =
  let keys = [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ] in
  let pos k = find_from json 0 (Printf.sprintf "%S:" k) in
  match pos key with
  | None -> failwith ("BENCHMARK.json has no " ^ key)
  | Some start ->
    let stop =
      List.fold_left
        (fun acc k -> match pos k with Some p when p > start -> min acc p | _ -> acc)
        (String.length json) keys
    in
    String.sub json start (stop - start)

(* The string values of every ["field": "value"] pair in [s], in order. *)
let values field s =
  let key = Printf.sprintf "%S" field in
  let rec go i acc =
    match find_from s i key with
    | None -> List.rev acc
    | Some p ->
      let colon = String.index_from s (p + String.length key) ':' in
      let q0 = String.index_from s colon '"' in
      let q1 = String.index_from s (q0 + 1) '"' in
      go (q1 + 1) (String.sub s (q0 + 1) (q1 - q0 - 1) :: acc)
  in
  go 0 []

let () =
  let failures = ref 0 in
  let expect what want got =
    if want <> got then begin
      incr failures;
      Printf.eprintf "spec: %s differ\n  program:        %s\n  BENCHMARK.json: %s\n" what
        (String.concat " " want) (String.concat " " got)
    end
  in
  expect "workloads" Spec.workloads (values "name" (section "workloads"));
  List.iter
    (fun (key, metrics) ->
      let s = section key in
      expect (key ^ " names") (List.map fst metrics) (values "name" s);
      expect (key ^ " units") (List.map snd metrics) (values "unit" s))
    [ ("end_to_end", Spec.end_to_end); ("per_layer", Spec.per_layer) ];
  if !failures > 0 then exit 1;
  Printf.printf "spec: %d workloads, %d end-to-end and %d per-layer metrics match BENCHMARK.json\n"
    (List.length Spec.workloads) (List.length Spec.end_to_end) (List.length Spec.per_layer)
