(* warm-tpch: one client, closed loop, on one warm provider with result
   recycling off. Each step runs one suite query under one seeded binding
   on every engine that accepts it. Plans are cached before timing, so
   the time goes to plan execution, storage scans and the hash and sort
   kernels. The row store as a whole is larger than L2, but what one
   query scans under the lowering's storage choice is not: at this scale
   it is 0.2-0.8 MiB against a 2 MiB per-core L2 (scan_kb), so the
   kernels mostly run in cache. A scale at which most queries outgrow L2
   (sf ~0.04) would not fit a run's time budget. *)

open Common
module Provider = Lq_core.Provider
module Engine_intf = Lq_catalog.Engine_intf
module Prng = Lq_exec.Prng

let sf = 0.007
let bindings_per_query = 3

(* Fast pairs repeat within a step until this much time is spent, so
   their medians rest on as many samples as the slow engines' do. *)
let step_min_ms = 2.0
let step_max_reps = 40

type pair = {
  query : string;
  q : Ast.query;
  ename : string;
  engine : Engine_intf.t;
  mutable samples : float list;
  mutable traced : float list;
  alloc : (int, float) Hashtbl.t;  (** binding → words of one warm execution *)
  sums : (int, string) Hashtbl.t;  (** binding → checksum of its first timed result *)
}

type t = {
  outcome : outcome;
  checksum : string;  (** digest of every pair's first result per binding *)
  allocs : (string * float) list;  (** (query/engine, words) per measured pair *)
}

let run_query prov (p : pair) params =
  Provider.run prov ~engine:p.engine ~params p.q

let run ?(sf = sf) ~seed ~seconds () =
  let (rng, cat, dbgen_ms, storage_ms, queries, refs, reference_ms), data_ms =
    repeated_setup (fun () ->
        let rng = Prng.create seed in
        let cat, dbgen_ms, storage_ms = Inputs.load ~seed ~sf in
        let queries =
          List.map
            (fun (name, q) ->
              (name, q, Array.init bindings_per_query (fun _ -> Inputs.binding rng name)))
            Lq_bench.Suite.queries
        in
        (* Reference answers for every binding the run will use. *)
        let ref0 = now_ms () in
        let refs = Hashtbl.create 32 in
        let prov = Provider.create cat in
        Spans.with_span "reference" "Provider.reference" (fun () ->
            List.iter
              (fun (name, q, binds) ->
                Array.iteri
                  (fun i params -> Hashtbl.replace refs (name, i) (Provider.reference prov ~params q))
                  binds)
              queries);
        (rng, cat, dbgen_ms, storage_ms, queries, refs, now_ms () -. ref0))
  in
  let setup0 = now_ms () in
  let data_bytes = Inputs.rowstore_bytes cat in
  let scan_bytes = List.map (fun (name, q, _) -> (name, Inputs.scan_bytes cat q)) queries in
  let prov = Provider.create cat in
  let tally = tally () in
  let check (p : pair) i rows =
    if matches p.q ~expected:(Hashtbl.find refs (p.query, i)) rows then (note_ok tally; true)
    else begin
      note_failed tally (Printf.sprintf "%s on %s: result differs from the reference" p.query p.engine.Engine_intf.name);
      false
    end
  in
  (* Warm-up: one execution per binding prepares the plan and interns the
     binding's strings, so the first timed execution is already warm; a
     second pass for compiled-c-jit confirms the native tier serves it.
     An engine that refuses a query is not measured on it; a pair whose
     warm-up result is wrong is counted failed and not timed. A jit pair
     still interpreted after warm-up is timed all the same, and makes the
     run invalid. Every timed result is checked again. *)
  let promote_ms = ref 0. in
  let interpreted_only = ref [] in
  let pairs =
    List.concat_map
      (fun (name, q, binds) ->
        List.filter_map
          (fun (ename, (engine : Engine_intf.t)) ->
            let p =
              {
                query = name;
                q;
                ename;
                engine;
                samples = [];
                traced = [];
                alloc = Hashtbl.create 4;
                sums = Hashtbl.create 4;
              }
            in
            let is_jit = String.equal ename "jit" in
            let t0 = now_ms () in
            let native_before = ref 0 in
            let outcome =
              Spans.with_span "provider" ("warm-up " ^ name ^ " " ^ engine.Engine_intf.name)
                (fun () ->
                  let pass () =
                    Array.for_all Fun.id
                      (Array.mapi (fun i params -> check p i (run_query prov p params)) binds)
                  in
                  match pass () && ((not is_jit) || (native_before := jit_count "exec_jit"; pass ())) with
                  | true -> `Ok
                  | false -> `Wrong
                  | exception Engine_intf.Unsupported _ -> `Refused
                  | exception e ->
                    note_failed tally
                      (Printf.sprintf "%s on %s: %s" name engine.Engine_intf.name (Printexc.to_string e));
                    `Wrong)
            in
            if is_jit then promote_ms := !promote_ms +. (now_ms () -. t0);
            match outcome with
            | `Ok ->
              if is_jit && jit_count "exec_jit" - !native_before < Array.length binds then
                interpreted_only := name :: !interpreted_only;
              Some p
            | `Refused | `Wrong -> None)
          Inputs.engines)
      queries
  in
  let setup_s = (data_ms +. now_ms () -. setup0) /. 1000. in
  (* Timed closed loop: rounds of every (query, binding) step in a seeded
     order, until the time is spent (at least one round). In a traced
     run every other step records spans; the untraced steps give the
     numbers. *)
  let steps =
    Array.of_list
      (List.concat_map
         (fun (name, _, binds) -> List.init (Array.length binds) (fun i -> (name, binds.(i), i)))
         queries)
  in
  let by_query = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.add by_query p.query p) pairs;
  let jit_native0 = jit_count "exec_jit" and jit_interp0 = jit_count "exec_interpreted" in
  let deadline = now_ms () +. (1000. *. seconds) in
  let step_no = ref 0 in
  let rounds = ref 0 in
  Spans.phase := "timed";
  while !rounds = 0 || now_ms () < deadline do
    incr rounds;
    Array.iter
      (fun (name, params, i) ->
        if !rounds = 1 || now_ms () < deadline then begin
          incr step_no;
          let traced = !Spans.on && !step_no land 1 = 1 in
          let ps = Inputs.shuffle rng (Array.of_list (Hashtbl.find_all by_query name)) in
          Array.iter
            (fun p ->
              let spent = ref 0. and reps = ref 0 in
              while !reps = 0 || (!spent < step_min_ms && !reps < step_max_reps) do
                incr reps;
                let w0 = Gc.minor_words () in
                let t0 = now_ms () in
                let rows =
                  if traced then
                    Spans.with_span "provider" ("Provider.run " ^ name) (fun () ->
                        Spans.traced (fun () -> run_query prov p params))
                  else run_query prov p params
                in
                let dt = now_ms () -. t0 in
                let words = Gc.minor_words () -. w0 in
                spent := !spent +. dt;
                if check p i rows then begin
                  if traced then p.traced <- dt :: p.traced
                  else begin
                    p.samples <- dt :: p.samples;
                    if not (Hashtbl.mem p.alloc i) then Hashtbl.replace p.alloc i words
                  end;
                  if not (Hashtbl.mem p.sums i) then Hashtbl.replace p.sums i (checksum rows)
                end
              done)
            ps
        end)
      (Inputs.shuffle rng steps)
  done;
  let jit_native = jit_count "exec_jit" - jit_native0 in
  let jit_interp = jit_count "exec_interpreted" - jit_interp0 in
  let native_share =
    if jit_native + jit_interp = 0 then 0. else float_of_int jit_native /. float_of_int (jit_native + jit_interp)
  in
  let measured = List.filter (fun p -> p.samples <> []) pairs in
  let pair_median p = median p.samples in
  (* Tail: the pooled tail of sample/median ratios, scaled by the
     latency it inflates. Every pair contributes, however fast. *)
  let tail_ratio ps =
    tail (List.concat_map (fun p -> let m = pair_median p in List.map (fun s -> s /. m) p.samples) ps)
  in
  let of_engine e = List.filter (fun p -> String.equal p.ename e) measured in
  let latency = geomean (List.map pair_median measured) in
  let per_engine =
    List.concat_map
      (fun e ->
        match of_engine e with
        | [] -> []
        | ps ->
          let ms = geomean (List.map pair_median ps) in
          [ metric ("exec_ms." ^ e) "ms" ms; metric ("exec_tail_ms." ^ e) "ms" (ms *. tail_ratio ps) ])
      Inputs.engine_names
  in
  (* Allocation: every (query, engine) pair but compiled-c-parallel,
     whose worker Domains allocate outside this Domain's count. *)
  let pair_alloc p =
    let ws = Hashtbl.fold (fun _ w acc -> w :: acc) p.alloc [] in
    List.fold_left ( +. ) 0. ws /. float_of_int (List.length ws)
  in
  let alloc_pairs = List.filter (fun p -> not (String.equal p.ename "parallel") && Hashtbl.length p.alloc > 0) measured in
  let alloc_of ps = geomean (List.map (fun p -> pair_alloc p /. 1000.) ps) in
  let per_engine_alloc =
    List.filter_map
      (fun e ->
        match List.filter (fun p -> String.equal p.ename e) alloc_pairs with
        | [] -> None
        | ps -> Some (metric ("alloc_kw." ^ e) "kw" (alloc_of ps)))
      Inputs.engine_names
  in
  let overhead =
    match List.filter (fun p -> p.traced <> []) measured with
    | [] -> 0.
    | ps ->
      (* Tracing cannot make a step faster: a negative difference is
         noise and reads as no overhead. *)
      Float.max 0. (100. *. (geomean (List.map (fun p -> median p.traced /. pair_median p) ps) -. 1.))
  in
  let n_samples = List.fold_left (fun acc p -> acc + List.length p.samples) 0 measured in
  List.iter
    (fun (name, b) ->
      Printf.printf "  %-7s scans %6d KiB (per-core L2 %d KiB)\n" name (b / 1024) (Inputs.l2_bytes / 1024))
    scan_bytes;
  List.iter
    (fun p ->
      Printf.printf "  %-7s %-28s median %9.3f ms  n=%d\n" p.query p.engine.Engine_intf.name
        (pair_median p) (List.length p.samples))
    measured;
  let checksum =
    List.concat_map
      (fun p ->
        if String.equal p.ename "parallel" then []
        else Hashtbl.fold (fun i s acc -> Printf.sprintf "%s/%s/%d=%s" p.query p.engine.Engine_intf.name i s :: acc) p.sums [])
      pairs
    |> List.sort compare |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let metrics =
    [
      metric "setup_s" "s" setup_s;
      metric "latency_ms" "ms" latency;
      metric "tail_ms" "ms" (latency *. tail_ratio measured);
      metric "alloc_kw" "kw" (alloc_of alloc_pairs);
      metric "jit.native_share" "ratio" native_share;
      metric "jit.promote_ms" "ms" !promote_ms;
      metric "jit.interpreted_only" "count" (float_of_int (List.length !interpreted_only));
      metric "tpch.dbgen_ms" "ms" dbgen_ms;
      metric "storage.build_ms" "ms" storage_ms;
      metric "reference_ms" "ms" reference_ms;
      metric "trace.overhead_pct" "%" overhead;
      metric "samples" "count" (float_of_int n_samples);
      metric "data_kb" "kb" (float_of_int data_bytes /. 1024.);
      metric "scan_kb" "kb" (geomean (List.map (fun (_, b) -> float_of_int b /. 1024.) scan_bytes));
    ]
    @ per_engine @ per_engine_alloc
  in
  {
    outcome =
      {
        metrics;
        tally;
        valid =
          [
            (native_share = 1.0, Printf.sprintf "jit.native_share = %.4f, must be 1" native_share);
            ( !interpreted_only = [],
              "compiled-c-jit must serve every query natively after warm-up; interpreted: "
              ^ String.concat ", " (List.rev !interpreted_only) );
          ];
      };
    checksum;
    allocs = List.map (fun p -> (p.query ^ "/" ^ p.engine.Engine_intf.name, pair_alloc p)) alloc_pairs;
  }
