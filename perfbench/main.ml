(* The placement benchmark. One workload per process:

     dune exec --root . ./perfbench/main.exe -- --workload fill --seed 42 \
       --seconds 25 --trace 0

   A run repeats whole rounds of its workload (set-up, every batch or the
   whole serving run, checks) for about [--seconds], then prints an
   accounting line and, as its last line, one JSON object. With
   [--trace 0] the metrics are the end-to-end ones; with [--trace 1] the
   run drives a traced copy of the scheduler next to the untraced stack
   and reports the per-layer split instead. See README.md. *)

open Aladdin

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cells_mode : Cells.Coordinator.mode;  (* for one-off reference figures *)
  serve_rate : float;  (* ditto *)
}

let usage =
  "usage: main.exe --workload fill|saturated|cells|serve [--seed N] \
   [--seconds S] [--trace 0|1] [--cells-mode sequential|domains|auto] \
   [--serve-rate R]"

let parse_args () =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--cells-mode" :: ("sequential" | "domains" | "auto" as v) :: rest ->
        let mode =
          match v with
          | "domains" -> `Domains
          | "auto" -> `Auto
          | _ -> `Sequential
        in
        go { a with cells_mode = mode } rest
    | "--serve-rate" :: v :: rest -> go { a with serve_rate = float_of_string v } rest
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %S\n%s" arg usage)
  in
  go
    {
      workload = "";
      seed = 42;
      seconds = 10.;
      trace = false;
      cells_mode = `Sequential;
      serve_rate = 3000.;
    }
    (List.tl (Array.to_list Sys.argv))

let now = Obs.now_ns
let ms_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e6

(* Runs whole rounds while the next one, if it lasts as long as the last,
   ends within [seconds]; at least one. The heap is compacted between
   rounds so that each starts from the inputs alone. *)
let rounds ~seconds f =
  let t0 = now () in
  let budget = Int64.of_float (seconds *. 1e9) in
  let rec go acc =
    let r0 = now () in
    let acc = f () :: acc in
    Gc.compact ();
    let t = now () in
    if Int64.add (Int64.sub t t0) (Int64.sub t r0) <= budget then go acc
    else List.rev acc
  in
  go []

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

(* ---- set-up ------------------------------------------------------------ *)

(* [Cluster.create] + [Engine.Stack.build], as a user starts a run. A
   single build is short, so each round builds [extra_setups] more
   throw-away stacks and setup_s is the median of all of them. *)
let extra_setups = 4

type setup = { cluster : Cluster.t; built : Engine.Stack.built; setup_ms : float }

let setup w ~n_machines spec =
  let t0 = now () in
  let cluster = Inputs.new_cluster w ~n_machines in
  let built = Engine.Stack.build spec in
  { cluster; built; setup_ms = ms_since t0 }

let setup_samples w ~n_machines spec =
  List.init extra_setups (fun _ ->
      let s = setup w ~n_machines spec in
      s.built.Engine.Stack.shutdown ();
      s.setup_ms)

(* ---- GC accounting around untraced scheduler calls ---------------------- *)

type gc_acc = {
  mutable minor : float;
  mutable major : float;
  mutable collections : int;
}

let gc_acc () = { minor = 0.; major = 0.; collections = 0 }

let with_gc acc f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  acc.minor <- acc.minor +. (s1.Gc.minor_words -. s0.Gc.minor_words);
  acc.major <- acc.major +. (s1.Gc.major_words -. s0.Gc.major_words);
  acc.collections <-
    acc.collections + (s1.Gc.major_collections - s0.Gc.major_collections);
  r

(* ---- results ------------------------------------------------------------- *)

type result = {
  attempted : int;
  failed : int;
  errors : string list;  (* correctness findings; empty when correct *)
  scale : float;  (* median host-speed factor of the timed rounds *)
  metrics : Stats.metric list;
}

let rejected_counter (spec : Engine.Stack.spec) =
  match spec.Engine.Stack.kind with
  | Engine.Stack.Cells -> Obs.counter "cells.rejected_batches"
  | _ -> Obs.counter "aladdin.rejected_batches"

(* ---- batch workloads: fill, saturated, cells ---------------------------- *)

type batch_round = {
  b_raw_ms : float list;  (* each schedule call's wall time *)
  b_batch_ms : float list;  (* ... at the reference speed; see calib.ml *)
  b_placed : int;
  b_machines_used : int;
  b_setup_ms : float list;  (* at the reference speed *)
  b_failed : int;
}

let place_instance (inp : Inputs.batched) check (ins : Inputs.instance) =
  let w = ins.Inputs.workload and n_machines = ins.Inputs.n_machines in
  let before_setup = Calib.samples 10 in
  let extra = setup_samples w ~n_machines inp.Inputs.spec in
  let s = setup w ~n_machines inp.Inputs.spec in
  let setup_factor = Calib.factor (before_setup @ Calib.samples 10) in
  let sched = s.built.Engine.Stack.scheduler in
  let rejected = rejected_counter inp.Inputs.spec in
  let n = Array.length ins.Inputs.batches in
  let raw = ref [] and factors = ref [] and failed = ref 0 in
  let segment = ref [] in
  Array.iteri
    (fun i batch ->
      let r0 = Obs.count rejected in
      let t0 = now () in
      let o =
        match sched.Scheduler.schedule s.cluster batch with
        | o -> Some o
        | exception e ->
            prerr_endline ("batch raised " ^ Printexc.to_string e);
            None
      in
      raw := ms_since t0 :: !raw;
      segment := Calib.sample_ms () :: !segment;
      (match o with
      | None -> incr failed
      | Some o ->
          if Obs.count rejected > r0 then incr failed;
          Check.check_batch check s.cluster batch o);
      (* The calls of one segment share the factor of the host-speed
         samples taken after each of them. *)
      if (i + 1) mod inp.Inputs.segment = 0 || i = n - 1 then begin
        let f = Calib.factor !segment in
        factors := List.map (fun _ -> f) !segment @ !factors;
        segment := []
      end)
    ins.Inputs.batches;
  Check.check_all check s.cluster;
  (* Preemption victims that found no machine again are lost, so count
     what the cluster holds at the end. *)
  let placed = Cluster.n_placed s.cluster in
  let total =
    Array.fold_left (fun n b -> n + Array.length b) 0 ins.Inputs.batches
  in
  if inp.Inputs.all_placed && placed <> total then
    Check.fail check "placed %d of %d containers on a cluster with room for all"
      placed total;
  s.built.Engine.Stack.shutdown ();
  let raw = List.rev !raw in
  {
    b_raw_ms = raw;
    b_batch_ms = List.map2 ( *. ) raw (List.rev !factors);
    b_placed = placed;
    b_machines_used = Cluster.used_machines s.cluster;
    b_setup_ms = List.map (fun t -> t *. setup_factor) (s.setup_ms :: extra);
    b_failed = !failed;
  }

let batch_round inp checks =
  let rs =
    Array.to_list
      (Array.mapi (fun k -> place_instance inp checks.(k)) inp.Inputs.instances)
  in
  let sum f = List.fold_left (fun n r -> n + f r) 0 rs in
  {
    b_raw_ms = List.concat_map (fun r -> r.b_raw_ms) rs;
    b_batch_ms = List.concat_map (fun r -> r.b_batch_ms) rs;
    b_placed = sum (fun r -> r.b_placed);
    b_machines_used = sum (fun r -> r.b_machines_used);
    b_setup_ms = List.concat_map (fun r -> r.b_setup_ms) rs;
    b_failed = sum (fun r -> r.b_failed);
  }

(* Rounds replay the same input, so they must place identically. *)
let same_every_round check what f rs =
  match List.sort_uniq Int.compare (List.map f rs) with
  | [ v ] -> float_of_int v
  | vs ->
      Check.fail check "%s differs between rounds: %s" what
        (String.concat ", " (List.map string_of_int vs));
      float_of_int (List.hd vs)

let n_batches (inp : Inputs.batched) =
  Array.fold_left
    (fun n (i : Inputs.instance) -> n + Array.length i.Inputs.batches)
    0 inp.Inputs.instances

(* One checker per instance: each cluster has its own applications. *)
let checkers (inp : Inputs.batched) =
  Array.map (fun (i : Inputs.instance) -> Check.create i.Inputs.workload)
    inp.Inputs.instances

(* Timings are medians over rounds of each round's figure, at the
   reference speed, so that a burst of outside load moves one round, not
   the result. *)
let run_batched (inp : Inputs.batched) ~seconds =
  let checks = checkers inp in
  let check = checks.(0) in
  let rs = rounds ~seconds (fun () -> batch_round inp checks) in
  let med f = Stats.median (List.map f rs) in
  let m = Stats.metric in
  let sum = List.fold_left ( +. ) 0. in
  {
    attempted = List.length rs * n_batches inp;
    failed = List.fold_left (fun n r -> n + r.b_failed) 0 rs;
    errors = List.concat_map Check.errors (Array.to_list checks);
    scale = med (fun r -> sum r.b_batch_ms /. sum r.b_raw_ms);
    metrics =
      [
        m "setup_s" "s"
          (Stats.median (List.concat_map (fun r -> r.b_setup_ms) rs) /. 1e3);
        m "containers_per_s" "1/s"
          (med (fun r -> float_of_int r.b_placed /. (sum r.b_batch_ms /. 1e3)));
        m "batch.p50_ms" "ms" (med (fun r -> Stats.median r.b_batch_ms));
        m "batch.tail_ms" "ms"
          (med (fun r -> Stats.percentile inp.Inputs.tail_p r.b_batch_ms));
        m "containers_placed" "count"
          (same_every_round check "containers placed" (fun r -> r.b_placed) rs);
        m "machines_used" "count"
          (same_every_round check "machines used" (fun r -> r.b_machines_used) rs);
        m "heap.peak_mb" "MB" (heap_peak_mb ());
        (* Every container of a batch arrives when the batch is submitted
           and commits when the call returns. *)
        m "latency.mean_ms" "ms" (med (fun r -> Stats.mean r.b_batch_ms));
      ];
  }

(* ---- serve ---------------------------------------------------------------- *)

type served_batch = {
  sb_batch : Container.t array;
  sb_outcome : Scheduler.outcome option;  (* [None]: the call raised *)
  sb_ms : float;
  sb_requests : int;
      (* requests the batch carried; a lower bound (1) when batches with
         no container ran since the previous call *)
}

type log = Event of Cluster.event | Batch_end of int

let c_taken = Obs.counter "serve.taken_requests"
let c_committed = Obs.counter "serve.batches"

(* The scheduler handed to the runner, timed by the benchmark. Checks
   would add to the service time the runner measures, so the wrapper only
   records; [serve_checks] replays the record once the run is over. *)
let recording_scheduler (inner : Scheduler.t) log batches =
  let last = ref None in
  let schedule cluster batch =
    let taken = Obs.count c_taken and committed = Obs.count c_committed in
    let requests =
      match !last with
      | Some (t, c) when committed = c + 1 -> taken - t
      | _ -> 1
    in
    last := Some (taken, committed);
    let t0 = now () in
    let finish outcome =
      batches :=
        { sb_batch = batch; sb_outcome = outcome; sb_ms = ms_since t0;
          sb_requests = requests }
        :: !batches;
      log := Batch_end (List.length !batches - 1) :: !log
    in
    match inner.Scheduler.schedule cluster batch with
    | o ->
        finish (Some o);
        o
    | exception e ->
        finish None;
        raise e
  in
  { inner with Scheduler.schedule }

type serve_round = {
  point : Serve.Runner.point;
  wall_s : float;
  batches : served_batch array;
  machines_used : int;
  setup_ms : float list;  (* at the reference speed; see calib.ml *)
  factor : float;  (* to the reference speed, for the run *)
}

(* Request-weighted mean service: every committed request waited for its
   batch's whole scheduler call. *)
let weighted_service_ms r =
  let num, den =
    Array.fold_left
      (fun (num, den) b ->
        (num +. (float_of_int b.sb_requests *. b.sb_ms), den + b.sb_requests))
      (0., 0) r.batches
  in
  if den = 0 then 0. else num /. float_of_int den

let serve_checks check (inp : Inputs.served) cluster log batches
    (p : Serve.Runner.point) =
  let sh = Check.shadow ~n_machines:inp.Inputs.s_machines in
  List.iter
    (function
      | Event ev -> Check.shadow_apply sh ev
      | Batch_end i -> (
          let b = batches.(i) in
          match b.sb_outcome with
          | None -> ()
          | Some o ->
              Check.check_outcome check ~machine_of:(Check.shadow_machine_of sh)
                b.sb_batch o;
              Check.shadow_check_touched check sh))
    (List.rev log);
  Check.shadow_check_touched check sh;
  Check.shadow_matches check sh cluster;
  Check.check_all check cluster;
  let open Serve.Runner in
  if p.admitted <> p.arrivals - p.rejected then
    Check.fail check "admitted %d <> arrivals %d - rejected %d" p.admitted
      p.arrivals p.rejected

let serve_run ?(sched_of = fun (b : Engine.Stack.built) -> b.Engine.Stack.scheduler)
    (inp : Inputs.served) cfg check =
  let w = inp.Inputs.s_workload and n_machines = inp.Inputs.s_machines in
  let before_setup = Calib.samples 10 in
  let extra = setup_samples w ~n_machines inp.Inputs.s_spec in
  let s = setup w ~n_machines inp.Inputs.s_spec in
  let log = ref [] and batches = ref [] in
  Cluster.set_tracer s.cluster (Some (fun ev -> log := Event ev :: !log));
  let sched = recording_scheduler (sched_of s.built) log batches in
  (* The runner times its scheduler calls itself, so host speed is
     sampled only around the run. *)
  let before_run = Calib.samples 20 in
  let t0 = now () in
  let point =
    Serve.Runner.run cfg ~sched ~cluster:s.cluster ~workload:w
  in
  let wall_s = ms_since t0 /. 1e3 in
  let factor = Calib.factor (before_run @ Calib.samples 20) in
  Cluster.set_tracer s.cluster None;
  let batches = Array.of_list (List.rev !batches) in
  serve_checks check inp s.cluster !log batches point;
  s.built.Engine.Stack.shutdown ();
  let r =
    {
      point;
      wall_s;
      batches;
      machines_used = Cluster.used_machines s.cluster;
      setup_ms =
        List.map
          (fun t -> t *. Calib.factor (before_setup @ before_run))
          (s.setup_ms :: extra);
      factor;
    }
  in
  if point.Serve.Runner.mean_ms < weighted_service_ms r then
    Check.fail check "mean latency %.4f ms below the mean service %.4f ms"
      point.Serve.Runner.mean_ms (weighted_service_ms r);
  r

let serve_failed (p : Serve.Runner.point) =
  p.Serve.Runner.rejected + p.Serve.Runner.shed + p.Serve.Runner.failed_requests

(* One serving round's figures, without its record of every batch. *)
type serve_figures = {
  f_point : Serve.Runner.point;
  f_rate : float;
  f_batch_ms : float list;
  f_machines_used : int;
  f_setup_ms : float list;
  f_scale : float;
}

let run_serve (inp : Inputs.served) ~seconds =
  let check = Check.create inp.Inputs.s_workload in
  let rs =
    rounds ~seconds (fun () ->
        let r = serve_run inp inp.Inputs.s_cfg check in
        {
          f_point = r.point;
          f_rate = float_of_int r.point.Serve.Runner.placed /. r.wall_s;
          f_batch_ms = List.map (fun b -> b.sb_ms) (Array.to_list r.batches);
          f_machines_used = r.machines_used;
          f_setup_ms = r.setup_ms;
          f_scale = r.factor;
        })
  in
  let med f = Stats.median (List.map f rs) in
  let sum f = List.fold_left (fun n r -> n + f r.f_point) 0 rs in
  let m = Stats.metric in
  {
    attempted = sum (fun p -> p.Serve.Runner.arrivals);
    failed = sum serve_failed;
    errors = Check.errors check;
    scale = med (fun r -> r.f_scale);
    metrics =
      [
        m "setup_s" "s"
          (Stats.median (List.concat_map (fun r -> r.f_setup_ms) rs) /. 1e3);
        m "containers_per_s" "1/s" (med (fun r -> r.f_rate /. r.f_scale));
        m "batch.p50_ms" "ms"
          (med (fun r -> Stats.median r.f_batch_ms *. r.f_scale));
        m "batch.tail_ms" "ms"
          (med (fun r ->
               Stats.percentile inp.Inputs.s_tail_p r.f_batch_ms *. r.f_scale));
        m "containers_placed" "count"
          (med (fun r -> float_of_int r.f_point.Serve.Runner.placed));
        m "machines_used" "count"
          (med (fun r -> float_of_int r.f_machines_used));
        m "heap.peak_mb" "MB" (heap_peak_mb ());
        m "latency.mean_ms" "ms"
          (med (fun r -> r.f_point.Serve.Runner.mean_ms *. r.f_scale));
      ];
  }

(* ---- traced runs ------------------------------------------------------------ *)

(* Per-round layer figures; a traced run reports each as the median over
   its rounds. *)
type layer_round = (string * string * float) list

let layer_metrics ?(cells = []) ?(serve = []) ~(l : Layers.t) ~traced_ns
    ~untraced_ns ~attributed_ns (gc : gc_acc) : layer_round =
  let ms ns = float_of_int ns /. 1e6 and n = float_of_int in
  let cells_zero =
    [ "cells.phase1_ms", "ms"; "cells.phase1_critical_ms", "ms";
      "cells.apply_ms", "ms"; "cells.fixup_ms", "ms";
      "cells.fixup_containers", "count"; "cells.active_cells", "count";
      "cells.resyncs", "count"; "cells.desyncs", "count" ]
  and serve_zero =
    [ "serve.service_ms", "ms"; "serve.queue_wait_ms", "ms";
      "serve.batches", "count"; "serve.batch_fill", "count";
      "serve.queue_depth_mean", "count"; "serve.overload_batches", "count" ]
  in
  let or_zero given names =
    if given <> [] then given else List.map (fun (k, u) -> (k, u, 0.)) names
  in
  [
    ("sim.scheduler.snapshot_ms", "ms", ms l.Layers.snapshot);
    ("core.search.find_ms", "ms", ms l.Layers.find);
    ("core.search.find_calls", "count", n l.Layers.find_calls);
    ("core.search.paths_explored", "count", n l.Layers.paths);
    ("core.search.prepare_ms", "ms", ms l.Layers.prepare);
    ("core.flow_graph.build_ms", "ms", ms l.Layers.fg_build);
    ("core.weights.order_ms", "ms", ms l.Layers.order);
    ("cluster.place_ms", "ms", ms l.Layers.place);
    ("core.migration.ms", "ms", ms l.Layers.mig);
    ("core.migration.attempts", "count", n l.Layers.mig_attempts);
    ("core.migration.successes", "count", n l.Layers.mig_successes);
    ("core.migration.moves", "count", n l.Layers.mig_moves);
    ("core.preemption.ms", "ms", ms l.Layers.pre);
    ("core.preemption.attempts", "count", n l.Layers.pre_attempts);
    ("core.preemption.successes", "count", n l.Layers.pre_successes);
    ("core.preemption.evicted", "count", n l.Layers.pre_evicted);
    ("unattributed_ms", "ms", ms (traced_ns - attributed_ns));
    ("traced.batch_ms", "ms", ms traced_ns);
    ("untraced.batch_ms", "ms", ms untraced_ns);
  ]
  @ or_zero cells cells_zero
  @ or_zero serve serve_zero
  @ [
      ("gc.minor_mwords", "Mwords", gc.minor /. 1e6);
      ("gc.major_mwords", "Mwords", gc.major /. 1e6);
      ("gc.major_collections", "count", n gc.collections);
    ]

let same_outcome (a : Scheduler.outcome) (b : Scheduler.outcome) =
  let ids o = List.map (fun (c : Container.t) -> c.Container.id) o.Scheduler.undeployed in
  a.Scheduler.placed = b.Scheduler.placed
  && ids a = ids b
  && a.Scheduler.migrations = b.Scheduler.migrations
  && a.Scheduler.preemptions = b.Scheduler.preemptions

let same_cluster a b =
  let sorted c = List.sort compare (Cluster.placements c) in
  sorted a = sorted b

let c_resyncs = Obs.counter "cells.resyncs"
let c_desyncs = Obs.counter "cells.desyncs"

type cells_acc = {
  mutable phase1 : float;
  mutable critical : float;
  mutable apply : float;
  mutable fixup : float;
  mutable fixup_n : int;
  mutable active : int;
  mutable resyncs : int;
  mutable desyncs : int;
}

type traced_acc = {
  l : Layers.t;
  gc : gc_acc;
  mutable traced_ns : int;
  mutable untraced_ns : int;
  c : cells_acc;
}

(* The traced scheduler and the untraced stack place the same batches on
   twin clusters; after every batch their outcomes must agree, and after
   any batch that moved containers, and at the end, so must the whole
   clusters. *)
let traced_instance (inp : Inputs.batched) check a (ins : Inputs.instance) =
  let w = ins.Inputs.workload and n_machines = ins.Inputs.n_machines in
  let twin = setup w ~n_machines inp.Inputs.spec in
  let cluster = Inputs.new_cluster w ~n_machines in
  let spec = inp.Inputs.spec in
  let coord =
    if spec.Engine.Stack.kind = Engine.Stack.Cells then
      Some
        (Layers.cells_coordinator a.l
           ~n_cells:(Option.get spec.Engine.Stack.cells)
           ~mode:(Option.get spec.Engine.Stack.cells_mode))
    else None
  in
  let traced =
    match coord with
    | Some c -> Cells.Coordinator.scheduler c ~name:"traced-cells"
    | None -> Layers.warm_scheduler a.l Aladdin_scheduler.default_options
  in
  let c = a.c in
  Array.iteri
    (fun i batch ->
      let r0 = Obs.count c_resyncs and d0 = Obs.count c_desyncs in
      let t0 = Layers.now () in
      let o = traced.Scheduler.schedule cluster batch in
      a.traced_ns <- a.traced_ns + (Layers.now () - t0);
      c.resyncs <- c.resyncs + (Obs.count c_resyncs - r0);
      c.desyncs <- c.desyncs + (Obs.count c_desyncs - d0);
      Option.iter
        (fun co ->
          match Cells.Coordinator.last_breakdown co with
          | None -> ()
          | Some b ->
              let cell_ms = b.Cells.Coordinator.cell_ms in
              c.phase1 <- c.phase1 +. Array.fold_left ( +. ) 0. cell_ms;
              c.critical <- c.critical +. Array.fold_left Float.max 0. cell_ms;
              c.apply <- c.apply +. b.Cells.Coordinator.apply_ms;
              c.fixup <- c.fixup +. b.Cells.Coordinator.fixup_ms;
              c.fixup_n <- c.fixup_n + b.Cells.Coordinator.fixup_containers;
              c.active <- c.active + b.Cells.Coordinator.active_cells)
        coord;
      let t1 = Layers.now () in
      let o' =
        with_gc a.gc (fun () ->
            twin.built.Engine.Stack.scheduler.Scheduler.schedule twin.cluster
              batch)
      in
      a.untraced_ns <- a.untraced_ns + (Layers.now () - t1);
      if not (same_outcome o o') then
        Check.fail check "batch %d: traced and untraced outcomes differ" i
      else if
        o.Scheduler.migrations + o.Scheduler.preemptions > 0
        && not (same_cluster cluster twin.cluster)
      then Check.fail check "batch %d: traced and untraced clusters differ" i;
      Check.check_batch check cluster batch o)
    ins.Inputs.batches;
  if not (same_cluster cluster twin.cluster) then
    Check.fail check "traced and untraced clusters differ at the end";
  Check.check_all check cluster;
  twin.built.Engine.Stack.shutdown ();
  Option.iter Cells.Coordinator.shutdown coord

let traced_batch_round (inp : Inputs.batched) checks =
  let a =
    {
      l = Layers.create ();
      gc = gc_acc ();
      traced_ns = 0;
      untraced_ns = 0;
      c =
        {
          phase1 = 0.;
          critical = 0.;
          apply = 0.;
          fixup = 0.;
          fixup_n = 0;
          active = 0;
          resyncs = 0;
          desyncs = 0;
        };
    }
  in
  Array.iteri (fun k -> traced_instance inp checks.(k) a) inp.Inputs.instances;
  let c = a.c in
  let cells =
    if inp.Inputs.spec.Engine.Stack.kind <> Engine.Stack.Cells then []
    else
      [
        ("cells.phase1_ms", "ms", c.phase1);
        ("cells.phase1_critical_ms", "ms", c.critical);
        ("cells.apply_ms", "ms", c.apply);
        ("cells.fixup_ms", "ms", c.fixup);
        ("cells.fixup_containers", "count", float_of_int c.fixup_n);
        ( "cells.active_cells",
          "count",
          float_of_int c.active /. float_of_int (n_batches inp) );
        ("cells.resyncs", "count", float_of_int c.resyncs);
        ("cells.desyncs", "count", float_of_int c.desyncs);
      ]
  in
  (* Phase 1 and the fix-up are spans over the cells' own layers; only
     the replay onto the outer cluster adds time of its own. *)
  let attributed_ns = Layers.total a.l + int_of_float (c.apply *. 1e6) in
  layer_metrics ~cells ~l:a.l ~traced_ns:a.traced_ns ~untraced_ns:a.untraced_ns
    ~attributed_ns a.gc

(* Serve's layer split. Batching follows the measured service time, so a
   traced and an untraced run only batch alike with a fixed virtual
   service time: the untraced run records its outcomes, the traced run
   must repeat them batch for batch. The serve.* figures, and the
   operation counts, come from a third run at measured service with the
   untraced stack. *)
let traced_serve_round (inp : Inputs.served) check =
  let measured = serve_run inp inp.Inputs.s_cfg check in
  let p = measured.point in
  let service = weighted_service_ms measured in
  let mean_call =
    Stats.mean (Array.to_list (Array.map (fun b -> b.sb_ms) measured.batches))
  in
  let fixed = { inp.Inputs.s_cfg with Serve.Runner.service_ms = mean_call } in
  let gc = gc_acc () in
  let untraced_ns = ref 0 in
  let timed_gc (inner : Scheduler.t) =
    {
      inner with
      Scheduler.schedule =
        (fun cluster batch ->
          let t0 = Layers.now () in
          let o = with_gc gc (fun () -> inner.Scheduler.schedule cluster batch) in
          untraced_ns := !untraced_ns + (Layers.now () - t0);
          o);
    }
  in
  let reference =
    serve_run ~sched_of:(fun b -> timed_gc b.Engine.Stack.scheduler) inp fixed check
  in
  let l = Layers.create () in
  let traced =
    serve_run
      ~sched_of:(fun _ -> Layers.warm_scheduler l Aladdin_scheduler.default_options)
      inp fixed check
  in
  let n = Array.length reference.batches in
  if Array.length traced.batches <> n then
    Check.fail check "traced serve ran %d batches, untraced %d"
      (Array.length traced.batches) n
  else
    Array.iteri
      (fun i (b : served_batch) ->
        match (b.sb_outcome, reference.batches.(i).sb_outcome) with
        | Some o, Some o' when same_outcome o o' -> ()
        | _ -> Check.fail check "serve batch %d: traced and untraced differ" i)
      traced.batches;
  let traced_ns =
    int_of_float
      (Array.fold_left (fun s b -> s +. b.sb_ms) 0. traced.batches *. 1e6)
  in
  let serve =
    let open Serve.Runner in
    [
      ("serve.service_ms", "ms", service);
      ("serve.queue_wait_ms", "ms", p.mean_ms -. service);
      ("serve.batches", "count", float_of_int p.batches);
      ("serve.batch_fill", "count", p.mean_batch_fill);
      ("serve.queue_depth_mean", "count", p.queue_depth_mean);
      ("serve.overload_batches", "count", float_of_int p.overload_batches);
    ]
  in
  ( p.Serve.Runner.arrivals,
    serve_failed p,
    layer_metrics ~serve ~l ~traced_ns ~untraced_ns:!untraced_ns
      ~attributed_ns:(Layers.total l) gc )

(* [round] returns the operations it attempted, those that failed, and
   its layer figures. *)
let run_traced ~seconds ~errors round =
  let rs = rounds ~seconds round in
  let metrics =
    match rs with
    | [] -> []
    | (_, _, first) :: _ ->
        List.mapi
          (fun i (name, unit_, _) ->
            Stats.metric name unit_
              (Stats.median
                 (List.map (fun (_, _, r) -> let _, _, v = List.nth r i in v) rs)))
          first
  in
  {
    attempted = List.fold_left (fun n (a, _, _) -> n + a) 0 rs;
    failed = List.fold_left (fun n (_, f, _) -> n + f) 0 rs;
    errors = errors ();
    scale = 1.;
    metrics;
  }

(* ---- main ------------------------------------------------------------------ *)

let run a =
  match a.workload with
  | ("fill" | "saturated" | "cells") as name ->
      let inp =
        match name with
        | "fill" -> Inputs.fill ~seed:a.seed
        | "saturated" -> Inputs.saturated ~seed:a.seed
        | _ -> Inputs.cells ~seed:a.seed ~mode:a.cells_mode
      in
      Gc.compact ();
      if a.trace then
        let checks = checkers inp in
        run_traced ~seconds:a.seconds
          ~errors:(fun () -> List.concat_map Check.errors (Array.to_list checks))
          (fun () -> (n_batches inp, 0, traced_batch_round inp checks))
      else run_batched inp ~seconds:a.seconds
  | "serve" ->
      let inp = Inputs.serve ~seed:a.seed ~rate:a.serve_rate in
      Gc.compact ();
      if a.trace then
        let check = Check.create inp.Inputs.s_workload in
        run_traced ~seconds:a.seconds
          ~errors:(fun () -> Check.errors check)
          (fun () -> traced_serve_round inp check)
      else run_serve inp ~seconds:a.seconds
  | w -> failwith (Printf.sprintf "unknown workload %S\n%s" w usage)

let () =
  let a = parse_args () in
  Check.self_test ();
  let r = run a in
  let correct = r.errors = [] in
  List.iter (fun e -> Printf.printf "check failed: %s\n" e) r.errors;
  List.iter
    (fun (m : Stats.metric) ->
      Printf.printf "  %-28s %14.4f %s\n" m.Stats.name m.Stats.value m.Stats.unit_)
    r.metrics;
  if not a.trace then
    Printf.printf "  times scaled to the reference speed by %.4f (calib.ml)\n"
      r.scale;
  Printf.printf "workload=%s seed=%d attempted=%d failed=%d\n" a.workload a.seed
    r.attempted r.failed;
  print_endline
    (Stats.result_json ~correct ~attempted:r.attempted ~failed:r.failed
       r.metrics)
