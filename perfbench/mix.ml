(* service-mix: Lq_tpch.Workloads.service_mix through Lq_service with
   result recycling on, compiled-c-jit in its default async tiering and
   min(nproc, 2) worker Domains. Arrivals are open-loop Poisson at fixed rates,
   generated on this Domain; seeded refreshes of part and customer
   invalidate part of the mix. The caches and the queue do the work, and
   the refreshes exercise the cache layers' invalidation path.

   Each request is timed from when it was due, so a stall (a refresh, or
   a late generator) shows in the latency of every request it delays. *)

open Common
module Provider = Lq_core.Provider
module Catalog = Lq_catalog.Catalog
module Service = Lq_service.Service
module Request = Lq_service.Request
module Future = Lq_service.Future
module Prng = Lq_exec.Prng

let sf = 0.002

(* Fixed arrival rates (requests/s), lowest first; latency is reported
   at each, and the end-to-end numbers at [reference_rate], which gets
   half of the run. At the lowest rate a refresh (every
   [refresh_every_ms]) falls every ~50 requests, so the requests it
   sends to invalidated plans and results are a large share of the
   figure, and its run-to-run spread is about half that at 400/s. *)
let rates = [ 100.; 400.; 1600.; 6400. ]
let reference_rate = 100.
let rate_name r = Printf.sprintf "%.0f" r

(* The latency limit on the tail (see BENCHMARK.json). *)
let limit_ms = 50.
let refresh_every_ms = 500.

(* The generator sleeps until shortly before a request is due and spins
   the rest: waking from a sleep on a shared virtual machine is late by a
   varying amount, which would otherwise add to every latency. The spin
   is at most 0.3 ms and a tenth of the mean gap between requests, so at
   high rates the generator leaves the cores to the service. *)
let spin_ms rate = Float.min 0.3 (100. /. rate)

(* A request that got no good answer (refused at admission, failed, timed
   out or wrong) has no latency. It counts as having waited from its due
   time until the benchmark stopped waiting for its rate's responses, and
   never less than twice the limit, so it always misses the limit and the
   printed tails stay finite. *)
let unanswered_ms ~drained ~due = Float.max (drained -. due) (2. *. limit_ms)

(* The end-to-end latency is the median, over the [window_ms] windows of
   the reference rate, of each window's median latency. Every window
   counts, refresh-disturbed ones included (each holds two refreshes);
   the median over windows keeps one disturbed stretch (a busy neighbour
   on a small shared machine slows Domain wake-ups for seconds at a time)
   from moving it. Means and high percentiles spread 0.4-1.0 run to run
   on a 2-vCPU host, so the refresh cost is reported per layer
   (refresh.stall_ms, svc_tail_ms). svc_p50_ms is the plain median of all requests. *)
let window_ms = 1000.

let median_window_median samples =
  let windows = Hashtbl.create 32 in
  let t0 = List.fold_left (fun acc (due, _) -> Float.min acc due) infinity samples in
  List.iter
    (fun (due, l) ->
      let w = int_of_float ((due -. t0) /. window_ms) in
      Hashtbl.replace windows w (l :: Option.value ~default:[] (Hashtbl.find_opt windows w)))
    samples;
  let medians =
    Hashtbl.fold (fun _ ls acc -> if List.length ls >= 50 then median ls :: acc else acc) windows []
  in
  if medians = [] then median (List.map snd samples) else median medians

(* Parameter vectors per label: params_of cycles with period 5 or 3. *)
let vectors = 5

(* One rate's untraced (due, latency, queue, exec) samples, its traced
   latencies, the requests still in flight when sending stopped and the
   requests the service refused at admission. *)
type phase = {
  rate : float;
  backlog : int;
  refused : int;
  samples : (float * float * float * float) list;
  traced : float list;
}

type sent = {
  due : float;
  send : float;
  label : string;
  vec : int;
  state : int * int;  (** (part version, customer version) when sent *)
  traced : bool;
  fut : Request.response Future.t option;  (** [None]: refused at admission *)
}

let uses name q = List.mem name (Ast.sources_of_query q)

(* The table versions a request's answer depends on. *)
let relevant (_, q, _) (pv, cv) =
  ((if uses "part" q then pv else 0), if uses "customer" q then cv else 0)

let domains () = max 1 (min 2 (Domain.recommended_domain_count ()))

(* The catalog with both versions of each refreshed table at hand, and
   the reference answer of every (label, vector, table versions) the run
   can send. *)
let prepare_data ~seed =
  let rng = Prng.create seed in
  let cat, dbgen_ms, storage_ms = Inputs.load ~seed ~sf in
  let mix = Array.of_list Lq_tpch.Workloads.service_mix in
  (* Version 1 of a table comes from another dbgen seed at the same
     scale, so keys still join. *)
  let other = Lq_tpch.Dbgen.generate ~seed:(seed + 1) ~sf () in
  let versions name =
    let _, schema, rows1 = List.find (fun (n, _, _) -> String.equal n name) other in
    ([| Catalog.rows (Catalog.table cat name); rows1 |], schema)
  in
  let part_rows, part_schema = versions "part" in
  let cust_rows, cust_schema = versions "customer" in
  let installed = ref (0, 0) in
  let install ((pv, cv) as state) =
    let replace name schema rows =
      Catalog.replace cat ~name ~schema rows;
      Inputs.force_table (Catalog.table cat name)
    in
    if pv <> fst !installed then replace "part" part_schema part_rows.(pv);
    if cv <> snd !installed then replace "customer" cust_schema cust_rows.(cv);
    installed := state
  in
  let ref0 = now_ms () in
  let refs = Hashtbl.create 64 in
  Spans.with_span "reference" "Provider.reference" (fun () ->
      let prov = Provider.create cat in
      List.iter
        (fun state ->
          install state;
          Array.iter
            (fun ((label, q, params_of) as item) ->
              for vec = 0 to vectors - 1 do
                let key = (label, vec, relevant item state) in
                if not (Hashtbl.mem refs key) then
                  Hashtbl.replace refs key (Provider.reference prov ~params:(params_of vec) q)
              done)
            mix)
        [ (0, 0); (1, 0); (0, 1); (1, 1) ];
      install (0, 0));
  (rng, cat, dbgen_ms, storage_ms, mix, installed, install, refs, now_ms () -. ref0)

(* Returns once the JIT's compile worker has run every job queued so far:
   it runs them one at a time in order, so a job queued now runs last. *)
let compiles_landed () =
  let m = Mutex.create () and c = Condition.create () and landed = ref false in
  Lq_jit.Tier.submit (fun () ->
      Mutex.protect m (fun () ->
          landed := true;
          Condition.signal c));
  Mutex.protect m (fun () ->
      while not !landed do
        Condition.wait c m
      done)

let run ~seed ~seconds =
  let tally = tally () in
  let engine = Lq_core.Engines.compiled_c_jit in
  let submit svc ?(traced = false) (_, q, params_of) vec =
    match Service.submit svc ~engine ~params:(params_of vec) ~trace:traced q with
    | Ok fut -> Some fut
    | Error _ -> None
  in
  (* Set-up: the data, then a service warmed up on a fresh JIT artifact
     directory: every (label, vector) once, then wait for the JIT's
     background compiles to land. It runs [setup_repeats] times like the
     other workloads' data set-up, so the JIT promotion's time is a
     median too; the services of the earlier repetitions are shut down. *)
  let start () =
    Jit_dir.reset ();
    let data = prepare_data ~seed in
    let _, cat, _, _, mix, _, _, _, _ = data in
    let gc0 = (Gc.quick_stat ()).Gc.minor_words in
    let prov = Provider.create ~recycle_results:true cat in
    (* The service's own admission control (queue capacity) stays on: a
       request it refuses misses the latency limit. *)
    let config = { Service.default_config with Service.domains = domains () } in
    let svc = Service.create ~config prov in
    let promote0 = now_ms () in
    Array.iter
      (fun ((label, _, _) as item) ->
        for vec = 0 to vectors - 1 do
          match submit svc item vec with
          | Some fut -> ignore (Future.await fut)
          | None -> note_failed tally (label ^ ": refused during warm-up")
        done)
      mix;
    compiles_landed ();
    (data, prov, svc, now_ms () -. promote0, (Gc.quick_stat ()).Gc.minor_words -. gc0)
  in
  let ( ((rng, cat, dbgen_ms, storage_ms, mix, installed, install, refs, reference_ms), prov, svc, promote_ms, setup_words),
        setup_ms ) =
    repeated_setup ~discard:(fun (_, _, svc, _, _) -> Service.shutdown svc) start
  in
  let setup_s = setup_ms /. 1000. in
  let gc0 = (Gc.quick_stat ()).Gc.minor_words in
  Spans.phase := "timed";
  let qstats0 = Provider.cache_stats prov in
  let qinval0 = Lq_metrics.Counters.count (Provider.cache_counters prov) "invalidations" in
  let rstats0 = Option.get (Provider.result_cache_stats prov) in
  let stalls = ref [] and late_max = ref 0. and refreshes = ref 0 in
  let phase_seconds rate =
    if rate = reference_rate then seconds /. 2.
    else seconds /. 2. /. float_of_int (List.length rates - 1)
  in
  let request_no = ref 0 in
  let run_rate rate =
    let sent = ref [] in
    let inflight () =
      List.filter_map
        (fun s -> match s.fut with Some f when not (Future.is_resolved f) -> Some f | _ -> None)
        !sent
    in
    let t0 = now_ms () in
    let t_end = t0 +. (1000. *. phase_seconds rate) in
    let gap () = -.log (1. -. Prng.float rng 1.) *. 1000. /. rate in
    let next_due = ref (t0 +. gap ()) and next_refresh = ref (t0 +. refresh_every_ms) in
    let stall_until = ref neg_infinity in
    while !next_due < t_end do
      if !next_refresh <= !next_due then begin
        (* Refresh, at its scheduled time: stop sending, drain in-flight
           requests, install the next version of one table, build its
           stores, resume. *)
        let wait = !next_refresh -. now_ms () in
        if wait > 0. then Unix.sleepf (wait /. 1000.);
        Spans.with_span "storage" "refresh" (fun () ->
            List.iter (fun f -> ignore (Future.await f)) (inflight ());
            let pv, cv = !installed in
            Spans.with_span "storage" "Catalog.replace" (fun () ->
                install (if !refreshes land 1 = 0 then (1 - pv, cv) else (pv, 1 - cv))));
        incr refreshes;
        let r1 = now_ms () in
        stalls := (r1 -. !next_refresh) :: !stalls;
        stall_until := r1;
        next_refresh := !next_refresh +. refresh_every_ms
      end
      else begin
        let due = !next_due in
        let wait = due -. now_ms () in
        if wait > spin_ms rate then Unix.sleepf ((wait -. spin_ms rate) /. 1000.);
        while now_ms () < due do
          Domain.cpu_relax ()
        done;
        let send = now_ms () in
        if due > !stall_until then late_max := Float.max !late_max (send -. due);
        let ((label, _, _) as item) = mix.(Prng.int rng (Array.length mix)) in
        let vec = Prng.int rng vectors in
        incr request_no;
        let traced = !Spans.on && !request_no land 1 = 1 in
        let fut = submit svc ~traced item vec in
        sent := { due; send; label; vec; state = relevant item !installed; traced; fut } :: !sent;
        next_due := due +. gap ()
      end
    done;
    let backlog = List.length (inflight ()) in
    let responses = List.rev_map (fun s -> (s, Option.map Future.await s.fut)) !sent in
    (rate, backlog, now_ms (), responses)
  in
  let phases = List.map run_rate rates in
  Service.shutdown svc;
  let words = setup_words +. (Gc.quick_stat ()).Gc.minor_words -. gc0 in
  (* Check every response against the reference; a failed, timed-out or
     wrong response misses the latency limit. *)
  let total = ref 0 and degraded = ref 0 in
  (* Result-cache hits return the very rows already checked: compare each
     physically distinct answer once. *)
  let verified = Hashtbl.create 64 in
  let correct query key rows =
    List.exists (fun r -> r == rows) (Hashtbl.find_all verified key)
    || matches query ~expected:(Hashtbl.find refs key) rows
       && (Hashtbl.add verified key rows;
           true)
  in
  let summarize (rate, backlog, drained, responses) =
    let samples = ref [] and traced = ref [] and refused = ref 0 in
    List.iter
      (fun (s, resp) ->
        incr total;
        let latency, queue, exec =
          match resp with
          | None ->
            (* Refused at admission: no result to check, and the request
               misses the latency limit. *)
            note_refused tally;
            incr refused;
            (unanswered_ms ~drained ~due:s.due, nan, nan)
          | Some (resp : Request.response) ->
            let ok =
              match resp.Request.outcome with
              | Request.Completed { rows; degraded = d; _ } ->
                if d then incr degraded;
                let _, query, _ =
                  List.find (fun (l, _, _) -> String.equal l s.label) Lq_tpch.Workloads.service_mix
                in
                correct query (s.label, s.vec, s.state) rows
                || (note_failed tally (s.label ^ ": result differs from the reference");
                    false)
              | outcome ->
                note_failed tally (s.label ^ ": " ^ Request.outcome_kind outcome);
                false
            in
            if ok then note_ok tally;
            (match resp.Request.trace with Some tr when s.traced -> Spans.import ~root:true tr | _ -> ());
            ( (if ok then s.send -. s.due +. resp.Request.total_ms else unanswered_ms ~drained ~due:s.due),
              resp.Request.queue_ms,
              resp.Request.exec_ms )
        in
        if s.traced then traced := latency :: !traced
        else samples := (s.due, latency, queue, exec) :: !samples)
      responses;
    { rate; backlog; refused = !refused; samples = !samples; traced = !traced }
  in
  let summaries = List.map summarize phases in
  let latencies p = List.map (fun (_, l, _, _) -> l) p.samples in
  let per_rate =
    List.concat_map
      (fun p ->
        let lat = latencies p in
        let tl = tail lat in
        Printf.printf "  rate %4.0f/s  n=%d  p50 %.3f ms  tail(p%.1f) %.3f ms  backlog %d  refused %d\n"
          p.rate (List.length lat) (median lat) (tail_percentile (List.length lat)) tl p.backlog p.refused;
        [
          metric ("svc_p50_ms." ^ rate_name p.rate) "ms" (median lat);
          metric ("svc_tail_ms." ^ rate_name p.rate) "ms" tl;
        ])
      summaries
  in
  let max_rps =
    List.fold_left
      (fun acc p ->
        if tail (latencies p) <= limit_ms && p.backlog <= 2 * domains () && p.refused = 0 then
          Float.max acc p.rate
        else acc)
      0. summaries
  in
  let ref_phase = List.find (fun p -> p.rate = reference_rate) summaries in
  let lat = latencies ref_phase in
  (* queue and execution times of the requests the service admitted *)
  let admitted = List.filter (fun (_, _, q, _) -> not (Float.is_nan q)) ref_phase.samples in
  let queue = List.map (fun (_, _, q, _) -> q) admitted in
  let exec = List.map (fun (_, _, _, e) -> e) admitted in
  let lat_traced = ref_phase.traced in
  let by_due = List.map (fun (d, l, _, _) -> (d, l)) ref_phase.samples in
  let qstats = Provider.cache_stats prov in
  let rstats = Option.get (Provider.result_cache_stats prov) in
  let ratio h m = if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m) in
  let metrics =
    [
      metric "setup_s" "s" setup_s;
      metric "latency_ms" "ms" (median_window_median by_due);
      metric "tail_ms" "ms" (tail lat);
      metric "alloc_kw" "kw" (words /. float_of_int (max 1 (!total - tally.refused)) /. 1000.);
      metric "svc_p50_ms" "ms" (median lat);
      metric "svc_tail_ms" "ms" (tail lat);
      metric "svc_max_rps" "1/s" max_rps;
      metric "svc.queue_ms_p50" "ms" (median queue);
      metric "svc.queue_ms_tail" "ms" (tail queue);
      metric "svc.exec_ms_p50" "ms" (median exec);
      metric "svc.degraded" "count" (float_of_int !degraded);
      metric "svc.refused" "count" (float_of_int (List.fold_left (fun acc p -> acc + p.refused) 0 summaries));
      metric "plan_cache.hit_ratio" "ratio"
        (ratio (qstats.Lq_core.Query_cache.hits - qstats0.Lq_core.Query_cache.hits)
           (qstats.Lq_core.Query_cache.misses - qstats0.Lq_core.Query_cache.misses));
      metric "result_cache.hit_ratio" "ratio"
        (ratio (rstats.Lq_core.Result_cache.hits - rstats0.Lq_core.Result_cache.hits)
           (rstats.Lq_core.Result_cache.misses - rstats0.Lq_core.Result_cache.misses));
      metric "plan_cache.invalidations" "count"
        (float_of_int (Lq_metrics.Counters.count (Provider.cache_counters prov) "invalidations" - qinval0));
      metric "result_cache.invalidations" "count"
        (float_of_int (rstats.Lq_core.Result_cache.invalidations - rstats0.Lq_core.Result_cache.invalidations));
      metric "refresh.stall_ms" "ms" (if !stalls = [] then 0. else median !stalls);
      metric "refreshes" "count" (float_of_int !refreshes);
      metric "gen.late_ms_max" "ms" !late_max;
      metric "jit.promote_ms" "ms" promote_ms;
      metric "samples" "count" (float_of_int (List.length lat));
      metric "tpch.dbgen_ms" "ms" dbgen_ms;
      metric "storage.build_ms" "ms" storage_ms;
      metric "reference_ms" "ms" reference_ms;
      metric "data_kb" "kb" (float_of_int (Inputs.rowstore_bytes cat) /. 1024.);
      metric "trace.overhead_pct" "%"
        (* below 0 is noise: tracing cannot make a request faster *)
        (if lat_traced = [] then 0. else Float.max 0. (100. *. ((median lat_traced /. median lat) -. 1.)));
    ]
    @ per_rate
  in
  { metrics; tally; valid = [ (!refreshes > 0, "the run must refresh at least once") ] }
