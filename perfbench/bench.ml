(* The repository benchmark: one executable, four workloads.

     bench.exe --workload W --seed N --seconds S --trace 0|1 --work-dir D

   Each run builds its inputs from the seed, sets up several times and
   reports the median set-up time, measures for [S] seconds, checks every
   output, and prints as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, measured with the layer timers off;
   the wall-clock set-up times, throughputs and latencies among them are
   scaled to the host's speed ([Host_speed]).
   With --trace 1 the first half of the window runs untimed, the second
   half runs with [Timed] clocks on, and the metrics are the per-layer
   ones plus the tracing cost. README.md in this directory maps every
   layer metric to the end-to-end metric it should move. *)

open Harness

(* ---------- small helpers ---------- *)

let now () = float_of_int (Timed.now_ns ()) *. 1e-9
let fi = float_of_int
let median xs = Option.value ~default:0.0 (Stats.median xs)
let pct p xs = Option.value ~default:0.0 (Stats.percentile p xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

let mem_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

type gc_delta = { minor_words : float; majors : int }

let gc_probe f =
  let g0 = Gc.quick_stat () in
  let x = f () in
  let g1 = Gc.quick_stat () in
  ( x,
    {
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      majors = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* Runs [f i] for i = 0, 1, ... at least [min_reps] times, and then while
   another repetition, as long as the last one, would end nearer to
   [seconds] from the start than stopping now. *)
let repeat ~seconds ~min_reps f =
  let t_end = now () +. seconds in
  let rec go i last acc =
    let t = now () in
    if i >= min_reps && t +. (last /. 2.0) >= t_end then List.rev acc
    else
      let x = f i in
      go (i + 1) (now () -. t) (x :: acc)
  in
  go 0 0.0 []

(* ---------- host speed ---------- *)

(* The host is shared, and its speed for this program's kind of code
   (allocation-heavy OCaml) follows the load of its other tenants, for
   stretches of seconds to minutes: the same model-checker exploration
   took 4.0 s and, a minute later, 6.4 s. A stretch can outlast a run, so
   no statistic over one run's wall times removes it. Every workload
   therefore also times a fixed reference loop, part of this benchmark
   and calling no repository code: the simulator and model-checker
   workloads one pass at most every [interval] seconds, between two timed
   pieces of the workload and outside them; kv-a1 five passes between
   two rounds, when no cluster runs. Set-up times, throughputs and
   latencies are reported multiplied by [factor ()], [reference_s] over
   the loop's mean time in the run: seconds as on a host where one pass
   of the loop takes [reference_s]. The loop slows down with the host as the workloads do
   (correlation 0.95 with the wall time of an exploration, 0.86 with that
   of a sim-a1 repetition, over minutes of drift), so the scaled figures
   follow the program, not the neighbours. *)
module Host_speed = struct
  let interval = 0.1
  let reference_s = 0.004
  let samples = ref []
  let last = ref neg_infinity

  module M = Map.Make (Int)

  (* Balanced-tree inserts and list sorts: allocation, pointer chasing and
     minor collections, like the workloads. Everything it builds is small
     and dies young, so it adds nothing to the peak heap. 2 to 4 ms a
     pass on the host of the figures in README.md. *)
  let loop () =
    let acc = ref 0 in
    for round = 1 to 110 do
      let l = List.init 200 (fun i -> ((i + round) * 7919) land 0xffff) in
      let m = List.fold_left (fun m x -> M.add x round m) M.empty l in
      acc := !acc + M.cardinal m + List.length (List.sort compare l)
    done;
    !acc

  let reset () =
    samples := [];
    last := neg_infinity

  let tick () =
    let t0 = now () in
    if t0 -. !last >= interval then begin
      ignore (Sys.opaque_identity (loop ()));
      last := now ();
      samples := (!last -. t0) :: !samples
    end

  (* [n] passes now, whatever the interval. *)
  let sample n =
    for _ = 1 to n do
      last := neg_infinity;
      tick ()
    done

  (* The run's wall seconds to reference seconds; 1 if nothing ticked. *)
  let factor () =
    match !samples with
    | [] -> 1.0
    | xs -> reference_s /. (sum Fun.id xs /. fi (List.length xs))
end

(* What one phase of a run measured. [layers] is filled only when the
   phase ran traced. *)
type phase = {
  attempted : int;
  failed : int;
  problems : string list;  (** Correctness failures, human-readable. *)
  setup_s : float;
  ops_per_s : float;
  lat_p50_ms : float;
  lat_p99_ms : float;
  gc_minor_per_delivery : float;
  gc_majors : float;
  layers : (string * float) list;
  host_factor : float;  (** [Host_speed.factor ()] of the phase *)
}

(* Per-layer figures from the [Timed] accumulators: [casts] and
   [deliveries] normalise message counts, [per] turns time totals into
   seconds per pass, [ops] into µs per operation. *)
let layer_block (t : Timed.totals) ~casts ~deliveries ~per ~ops =
  let total a = fi (Array.fold_left ( + ) 0 a) in
  let msgs l = fi (t.Timed.intra.(l) + t.Timed.inter.(l)) in
  let per_cast x = ratio x (fi casts) in
  let self l = t.Timed.self_s.(l) /. per in
  let us_per_op l = ratio (t.Timed.self_s.(l) *. 1e6) (fi ops) in
  [
    ("net.intra_per_delivery", ratio (total t.Timed.intra) (fi deliveries));
    ("net.inter_per_cast", per_cast (total t.Timed.inter));
    ("consensus.msgs_per_cast", per_cast (msgs Timed.consensus));
    ("consensus.handler_s", self Timed.consensus);
    ("consensus.handler_us_per_op", us_per_op Timed.consensus);
    ("rmcast.msgs_per_cast", per_cast (msgs Timed.rmcast));
    ("rmcast.handler_s", self Timed.rmcast);
    ("rmcast.handler_us_per_op", us_per_op Timed.rmcast);
    ("amcast.inter_per_cast", per_cast (fi t.Timed.inter.(Timed.amcast)));
    ("amcast.handler_s", self Timed.amcast);
    ("amcast.cast_s", self Timed.cast_slot);
    ("fd.msgs_per_cast", per_cast (msgs Timed.fd));
    ("fd.handler_s", self Timed.fd);
    ("runtime.timer_s", self Timed.timer);
    ("harness.upcall_s", self Timed.upcall);
  ]

(* [Protocol.S.stats] of every process: batched casts per batch, and the
   deepest consensus pipeline any process reached. *)
let batching_block stats =
  let all = List.concat stats in
  let get k = List.fold_left (fun acc (l, v) -> if l = k then acc + v else acc) 0 all in
  let depth =
    List.fold_left
      (fun acc (l, v) -> if l = "pipeline_depth_max" then max acc v else acc)
      0 all
  in
  [
    ( "amcast.casts_per_batch",
      ratio (fi (get "batched_casts")) (fi (get "batches_formed")) );
    ("amcast.pipeline_depth_max", fi depth);
  ]

let degree_mean r =
  let ds = List.filter_map snd (Metrics.latency_degrees r) in
  ratio (fi (List.fold_left ( + ) 0 ds)) (fi (List.length ds))

(* ---------- sim-a1-saturate ---------- *)

(* One DES deployment of A1 at scale, driven to quiescence and checked;
   the same seeded deployment is repeated to fill the window, and every
   repetition must reproduce the first one's delivery digest. *)
module Sim_a1 = struct
  module T = Timed.Make (Amcast.A1)
  module R = Runner.Make (T)

  let topology = Net.Topology.symmetric ~groups:20 ~per_group:5
  let n_casts = 5_000

  let workload seed =
    Workload.generate ~rng:(Des.Rng.create seed) ~topology ~n:n_casts
      ~dest:(Workload.Random_groups 3)
      ~arrival:(`Poisson (Des.Sim_time.of_ms 5))
      ()

  let deploy seed wl =
    let dep =
      R.deploy ~seed ~latency:Net.Latency.wan_default ~record_trace:false
        ~config:Amcast.Protocol.Config.throughput topology
    in
    ignore (R.schedule dep wl);
    dep

  (* The run advances in slices of this much virtual time, some 10 ms of
     wall each, so that the host-speed loop can run between them. *)
  let slice_ms = 100
  let max_steps = 500_000_000

  (* Runs [dep] to quiescence and snapshots it; returns the run and its
     wall seconds, host-speed loops excluded. *)
  let run_sliced dep =
    let e = R.engine dep in
    let rec go k acc =
      if Des.Scheduler.pending (Runtime.Engine.scheduler e) = 0 then acc
      else begin
        Host_speed.tick ();
        let t0 = now () in
        Runtime.Engine.run ~until:(Des.Sim_time.of_ms (slice_ms * k)) ~max_steps e;
        go (k + 1) (acc +. (now () -. t0))
      end
    in
    let run = go 1 0.0 in
    let t0 = now () in
    let r = R.run_deployment ~max_steps dep in
    (r, run +. (now () -. t0))

  type rep = {
    setup : float;
    run : float;
    check : float;
    events : int;
    deliveries : int;
    failed : int;
    problems : string list;
    gc : gc_delta;
    digest : int;
  }

  let phase ~seed ~seconds ~traced =
    let wl = workload seed in
    Host_speed.reset ();
    let setups =
      List.init 5 (fun _ ->
          Host_speed.tick ();
          let t0 = now () in
          ignore (deploy seed wl);
          now () -. t0)
    in
    Timed.reset ();
    Timed.tracing := traced;
    (* Of the first repetition's run only summaries are kept: a retained
       run would double the live heap that every later collection marks. *)
    let first = ref None in
    let reps =
      repeat ~seconds ~min_reps:2 (fun i ->
          Host_speed.tick ();
          let t0 = now () in
          let dep = deploy seed wl in
          let t1 = now () in
          let (r, run), gc = gc_probe (fun () -> run_sliced dep) in
          let t2 = now () in
          let violations = Checker.check_all ~check_quiescence:true r in
          let t3 = now () in
          let drained = r.Run_result.drained in
          if i = 0 then
            first :=
              Some
                ( Metrics.delivery_latencies_ms r,
                  (if traced then degree_mean r else 0.0),
                  List.map
                    (fun p -> T.stats (R.node dep p))
                    (Net.Topology.all_pids topology) );
          {
            setup = t1 -. t0;
            run;
            check = t3 -. t2;
            events = r.Run_result.events_executed;
            deliveries = List.length r.Run_result.deliveries;
            failed =
              (if violations <> [] || not drained then n_casts else 0);
            problems =
              (violations @ if drained then [] else [ "sim-a1-saturate: run did not drain" ]);
            gc;
            digest = Mc.Explorer.digest r;
          })
    in
    Timed.tracing := false;
    let host = Host_speed.factor () in
    let lat, degree, stats = Option.get !first in
    let n = List.length reps in
    let d0 = (List.hd reps).digest in
    let med f = median (List.map f reps) in
    let layers =
      if not traced then []
      else
        [
          ("des.events", med (fun x -> fi x.events));
          ("des.events_per_s", med (fun x -> fi x.events /. x.run));
          ( "des.engine_s",
            (sum (fun x -> x.run) reps -. Timed.timed_s (Timed.totals ())) /. fi n );
          ("harness.check_s", med (fun x -> x.check));
          ("harness.check_share", med (fun x -> x.check /. (x.run +. x.check)));
          ("sim.degree_mean", degree);
        ]
        @ layer_block (Timed.totals ()) ~casts:(n_casts * n)
            ~deliveries:(List.fold_left (fun a x -> a + x.deliveries) 0 reps)
            ~per:(fi n) ~ops:(n_casts * n)
        @ batching_block stats
    in
    {
      attempted = n_casts * n;
      failed = List.fold_left (fun a x -> a + x.failed) 0 reps;
      problems =
        List.concat_map
          (fun x ->
            x.problems
            @ if x.digest <> d0 then [ "sim-a1-saturate: repetition diverged" ] else [])
          reps;
      setup_s = median (setups @ List.map (fun x -> x.setup) reps) *. host;
      ops_per_s =
        ratio
          (fi (List.fold_left (fun a x -> a + x.deliveries) 0 reps))
          (sum (fun x -> x.run +. x.check) reps *. host);
      lat_p50_ms = pct 50.0 lat;
      lat_p99_ms = pct 99.0 lat;
      gc_minor_per_delivery = med (fun x -> x.gc.minor_words /. fi (max 1 x.deliveries));
      gc_majors = med (fun x -> fi x.gc.majors);
      layers;
      host_factor = host;
    }
end

(* ---------- sim-a2-faults ---------- *)

(* A fixed, seeded list of campaign scenarios (crashes + nemesis plans)
   through A2 broadcast, each run and fully checked by [Campaign.run_one].
   The list is one pass; passes repeat to fill the window. The benchmark
   cannot reach the run inside [run_one], so [Timed.Recorder] rebuilds it
   from the casts and deliveries the wrapper saw. *)
module Sim_a2 = struct
  module T = Timed.Make (Amcast.A2)

  let n_scenarios = 1000

  (* The campaign's WAN-latency scenarios ([jitter]) only: its LAN ones
     deliver in about a millisecond, and a mix of the two puts the median
     latency in the gap between two modes, where it jumps with the mix. *)
  let scenarios seed =
    Seq.ints 0
    |> Seq.map
         (Campaign.scenario_at ~broadcast_only:true ~with_crashes:true
            ~with_nemesis:true ~seed)
    |> Seq.filter (fun s -> s.Campaign.jitter)
    |> Seq.take n_scenarios |> List.of_seq

  type pass = {
    setup : float;
    wall : float;
    check : float;
    events : int;
    deliveries : int;
    casts : int;
    failed : int;
    problems : string list;
    gc : gc_delta;
    digest : Digest.t;  (** of the pass's outcomes *)
  }

  let one_pass ~traced ~keep scs =
    let setup = ref 0.0 and wall = ref 0.0 and check = ref 0.0 in
    let deliveries = ref 0 and casts = ref 0 and failed = ref 0 in
    let problems = ref [] in
    let minor = ref 0.0 and majors = ref 0 in
    let outcomes =
      List.map
        (fun s ->
          Host_speed.tick ();
          Timed.Recorder.start ();
          let t0 = Timed.now_ns () in
          let o, gc =
            gc_probe (fun () -> Campaign.run_one (module T) ~check_quiescence:true s)
          in
          let t1 = Timed.now_ns () in
          Timed.Recorder.stop ();
          minor := !minor +. gc.minor_words;
          majors := !majors + gc.majors;
          setup := !setup +. (fi (Timed.Recorder.first_event_ns () - t0) *. 1e-9);
          wall := !wall +. (fi (t1 - t0) *. 1e-9);
          let r = Timed.Recorder.run_result () in
          let n = List.length r.Run_result.casts in
          casts := !casts + n;
          deliveries := !deliveries + List.length r.Run_result.deliveries;
          let bad = o.Campaign.violations <> [] || not o.Campaign.drained in
          if bad then begin
            failed := !failed + n;
            problems :=
              Fmt.str "sim-a2-faults: scenario seed %d: %s" s.Campaign.seed
                (String.concat "; "
                   (if o.Campaign.drained then o.Campaign.violations
                    else "did not drain" :: o.Campaign.violations))
              :: !problems
          end;
          if traced then begin
            (* the same check run_one made, on the rebuilt run: times
               the checker and cross-checks the verdict *)
            let c0 = now () in
            let v = Checker.check_all ~check_quiescence:true r in
            check := !check +. (now () -. c0);
            if v <> [] then
              problems := ("sim-a2-faults: rebuilt run: " ^ List.hd v) :: !problems
          end;
          keep r;
          o)
        scs
    in
    {
      setup = !setup;
      wall = !wall;
      check = !check;
      events = List.fold_left (fun a o -> a + o.Campaign.steps) 0 outcomes;
      deliveries = !deliveries;
      casts = !casts;
      failed = !failed;
      problems = !problems;
      gc = { minor_words = !minor; majors = !majors };
      digest = Digest.string (Marshal.to_string outcomes []);
    }

  let phase ~seed ~seconds ~traced =
    let scs = scenarios seed in
    let lat = ref [] and degrees = ref [] in
    Host_speed.reset ();
    Timed.reset ();
    Timed.tracing := traced;
    let passes =
      repeat ~seconds ~min_reps:2 (fun i ->
          let keep r =
            if i = 0 then begin
              lat := List.rev_append (Metrics.delivery_latencies_ms r) !lat;
              degrees := List.filter_map snd (Metrics.latency_degrees r) @ !degrees
            end
          in
          one_pass ~traced ~keep scs)
    in
    Timed.tracing := false;
    let host = Host_speed.factor () in
    let n = List.length passes in
    let p0 = List.hd passes in
    let med f = median (List.map f passes) in
    let layers =
      if not traced then []
      else
        let run = sum (fun p -> p.wall -. p.setup -. p.check) passes in
        [
          ("des.events", fi p0.events);
          ("des.events_per_s", med (fun p -> fi p.events /. p.wall));
          ("des.engine_s", (run -. Timed.timed_s (Timed.totals ())) /. fi n);
          ("harness.check_s", med (fun p -> p.check));
          ("harness.check_share", med (fun p -> p.check /. p.wall));
          ( "sim.degree_mean",
            ratio (fi (List.fold_left ( + ) 0 !degrees)) (fi (List.length !degrees)) );
        ]
        @ layer_block (Timed.totals ()) ~casts:(p0.casts * n) ~deliveries:(p0.deliveries * n)
            ~per:(fi n) ~ops:(p0.casts * n)
    in
    {
      attempted = List.fold_left (fun a p -> a + p.casts) 0 passes;
      failed = List.fold_left (fun a p -> a + p.failed) 0 passes;
      problems =
        List.concat_map
          (fun p ->
            p.problems
            @ if p.digest <> p0.digest then [ "sim-a2-faults: pass diverged" ] else [])
          passes;
      setup_s = med (fun p -> p.setup) *. host;
      ops_per_s =
        ratio
          (fi (List.fold_left (fun a p -> a + p.deliveries) 0 passes))
          (sum (fun p -> p.wall) passes *. host);
      lat_p50_ms = pct 50.0 !lat;
      lat_p99_ms = pct 99.0 !lat;
      gc_minor_per_delivery = med (fun p -> p.gc.minor_words /. fi (max 1 p.deliveries));
      gc_majors = med (fun p -> fi p.gc.majors);
      layers;
      host_factor = host;
    }
end

(* ---------- mc-a1 ---------- *)

(* Exhaustive POR exploration of A1 on 2 groups x 2 processes, two global
   casts, reorder bound 3. The explored schedule space is the same for
   every seed (the seed moves the deployment seed and the payloads, which
   A1 under crisp latencies never reads), so the wall figures compare
   like with like across seeds. *)
module Mc_a1 = struct
  module T = Timed.Make (Amcast.A1)
  module E = Mc.Explorer.Make (T)

  let make_setup seed =
    let cast at origin tag =
      {
        Workload.at = Des.Sim_time.of_us at;
        origin;
        dest = [ 0; 1 ];
        payload = Printf.sprintf "m%d-%s" seed tag;
      }
    in
    E.make_setup ~seed ~reorder_bound:3
      ~topology:(Net.Topology.make ~sizes:[ 2; 2 ])
      [ cast 1_000 0 "a"; cast 2_000 0 "b" ]

  type exploration = {
    wall : float;  (** samples excluded *)
    samples : (float * int) list;  (** seconds, events executed *)
    gc : gc_delta;
    stats : E.stats;
    digests : int list;
    block_p50 : float;
    block_p99 : float;
        (** ms to reach each next [sample_every] terminal states *)
    violating : int;
    violation : bool;
  }

  (* At every [sample_every]-th terminal state the exploration pauses for
     one timed sample, so that the samples spread over the whole window
     and its changing host speed as the exploration does; a burst of
     samples at one instant reads one host speed. Their time, and the
     host-speed loop's, is left out of the exploration's wall and of its
     blocks of [sample_every] terminal states. Untraced, a sample is an
     explorer set-up (setup + replay of the root schedule); traced, a
     plain replay of the terminal state's schedule, whose wall per event
     gives the execution share of the search. *)
  let sample_every = 16

  let explore ~seed ~traced setup =
    let violating = ref 0 in
    let check r =
      let v = Checker.check_all r in
      if v <> [] then incr violating;
      v
    in
    let blocks = ref [] and block = ref 0.0 and samples = ref [] in
    let terminals = ref 0 and sampling = ref 0.0 in
    let t0 = now () in
    let last = ref t0 in
    let on_terminal choices _ =
      let t = now () in
      block := !block +. (t -. !last);
      incr terminals;
      if !terminals mod sample_every = 0 then begin
        blocks := (!block *. 1e3) :: !blocks;
        block := 0.0;
        let s0 = now () in
        let events =
          if traced then (E.replay setup choices).Run_result.events_executed
          else (
            ignore (E.replay (make_setup seed) []);
            0)
        in
        samples := (now () -. s0, events) :: !samples
      end;
      Host_speed.tick ();
      last := now ();
      sampling := !sampling +. (!last -. t)
    in
    let o, gc =
      gc_probe (fun () -> E.explore ~opts:{ E.default_opts with E.check } ~on_terminal setup)
    in
    {
      wall = now () -. t0 -. !sampling;
      samples = !samples;
      gc;
      stats = o.E.stats;
      digests = o.E.outcome_digests;
      block_p50 = pct 50.0 !blocks;
      block_p99 = pct 99.0 !blocks;
      violating = !violating;
      violation = o.E.violation <> None;
    }

  let phase ~seed ~seconds ~traced =
    let setup = make_setup seed in
    Host_speed.reset ();
    Timed.reset ();
    Timed.tracing := traced;
    let xs = repeat ~seconds ~min_reps:1 (fun _ -> explore ~seed ~traced setup) in
    let tot = Timed.totals () in
    let samples = List.concat_map (fun x -> x.samples) xs in
    let per_event =
      ratio (sum fst samples) (fi (List.fold_left (fun a (_, e) -> a + e) 0 samples))
    in
    Timed.tracing := false;
    let host = Host_speed.factor () in
    let x0 = List.hd xs in
    let n = List.length xs in
    let med f = median (List.map f xs) in
    let explore_s = med (fun x -> x.wall) in
    let layers =
      if not traced then []
      else
        let s = x0.stats in
        let exec = fi s.E.events *. per_event in
        [
          ("des.events", fi s.E.events);
          ("des.events_per_s", med (fun x -> fi x.stats.E.events /. x.wall));
          ( "des.engine_s",
            (sum (fun x -> x.wall) xs -. Timed.timed_s tot) /. fi n );
          ("mc.interleavings", fi s.E.interleavings);
          ("mc.replays", fi s.E.replays);
          ("mc.events_per_replay", ratio (fi s.E.events) (fi s.E.replays));
          ("mc.sleep_prunes", fi s.E.sleep_prunes);
          ("mc.explore_s", explore_s);
          ("mc.exec_s", exec);
          ("mc.search_s", explore_s -. exec);
        ]
        @ layer_block tot ~casts:tot.Timed.ncalls.(Timed.cast_slot)
            ~deliveries:tot.Timed.ncalls.(Timed.upcall) ~per:(fi n)
          ~ops:(s.E.interleavings * n)
    in
    {
      attempted = List.fold_left (fun a x -> a + x.stats.E.interleavings) 0 xs;
      failed = List.fold_left (fun a x -> a + x.violating) 0 xs;
      problems =
        List.concat_map
          (fun x ->
            (if x.stats.E.exhaustive then [] else [ "mc-a1: exploration not exhaustive" ])
            @ (if x.violation then [ "mc-a1: violation found" ] else [])
            @
            if x.digests <> x0.digests || x.stats.E.interleavings <> x0.stats.E.interleavings
            then [ "mc-a1: explorations disagree" ]
            else [])
          xs;
      setup_s = median (List.map fst samples) *. host;
      ops_per_s =
        ratio
          (fi (List.fold_left (fun a x -> a + x.stats.E.interleavings) 0 xs))
          (sum (fun x -> x.wall) xs *. host);
      lat_p50_ms = med (fun x -> x.block_p50) *. host;
      lat_p99_ms = med (fun x -> x.block_p99) *. host;
      gc_minor_per_delivery =
        sum (fun x -> x.gc.minor_words) xs
        /. fi (max 1 tot.Timed.ncalls.(Timed.upcall));
      gc_majors = med (fun x -> fi x.gc.majors);
      layers;
      host_factor = host;
    }
end

(* ---------- kv-a1 ---------- *)

(* The replicated KV service over localhost TCP: 2 groups x 3 replicas,
   A1, no injected delay, two closed-loop clients. Client [i] owns keys
   that hash to group [i] and talks to one replica of that group, so it is
   that replica's only source of casts: the replica's casts, in order,
   are the client's requests, in order — the join that gives each
   request's client spans its message id.

   The window is a sequence of rounds. Each round boots a fresh cluster
   (its set-up sample: boot to the first reply), has every client send
   [warmup_ops] unmeasured requests and then [measured_ops] measured
   ones, checks the cluster and stops it. The per-round figures are
   medianed over the rounds. A fixed count per round, not a fixed time,
   keeps the retained per-command state, and so the peak heap, the same
   however fast the host runs. *)
module Kv_a1 = struct
  module T = Timed.Make (Amcast.A1)
  module KV = Transport.Kv_service.Make (T)

  let topology = Net.Topology.symmetric ~groups:2 ~per_group:3
  let clients = 2
  let keys_per_client = 16
  let value_bytes = 32
  let warmup_ops = 300
  let measured_ops = 1500

  (* Ports 7600-7715: clear of the CI smoke cluster (7400) and the test
     suites (7500-7540). Round [r] boots on 7600 + 10 (r mod 12). *)
  let port_of_round r = 7600 + (10 * (r mod 12))

  let keys seed i =
    let rec go j acc =
      if List.length acc = keys_per_client then Array.of_list (List.rev acc)
      else
        let k = Printf.sprintf "s%d-c%d-k%d" seed i j in
        go (j + 1)
          (if Transport.Kv.group_of_key ~groups:clients k = i then k :: acc else acc)
    in
    go 0 []

  type client = {
    lat : float list;  (** measured round trips, ms *)
    busy_s : float;  (** first measured request to last measured reply *)
    requests : (int * int) list;
        (** (sent, received) instants (ns) of every request, oldest first,
            when recorded *)
    answered : int;
    wrong : int;  (** replies other than the client's own last write *)
    errors : int;
    first_error : string option;
  }

  (* [warmup_ops + measured_ops] requests, one in flight, each checked
     against the client's model of its own keys. Stops at the first
     transport error. *)
  let client_loop ~rng ~addr ~keys ~record =
    let model = Hashtbl.create 16 in
    let lat = ref [] and requests = ref [] and answered = ref 0 and wrong = ref 0 in
    let first_error = ref None and m0 = ref 0 and m1 = ref 0 in
    let note e = if !first_error = None then first_error := Some e in
    let value () =
      String.init value_bytes (fun _ -> Char.chr (97 + Des.Rng.int rng 26))
    in
    let rec go c i =
      if i < warmup_ops + measured_ops then begin
        let key = keys.(Des.Rng.int rng (Array.length keys)) in
        let x = Des.Rng.float rng 1.0 in
        let line, expect, update =
          if x < 0.5 then
            let e =
              match Hashtbl.find_opt model key with
              | Some v -> (true, v)
              | None -> (false, "")
            in
            ("GET " ^ key, e, None)
          else if x < 0.55 then ("DEL " ^ key, (true, "OK"), Some None)
          else
            let v = value () in
            ("SET " ^ key ^ " " ^ v, (true, "OK"), Some (Some v))
        in
        let t0 = Timed.now_ns () in
        let reply = Transport.Tcp.Client.request c line in
        let t1 = Timed.now_ns () in
        if record then requests := (t0, t1) :: !requests;
        incr answered;
        (match update with
        | Some (Some v) -> Hashtbl.replace model key v
        | Some None -> Hashtbl.remove model key
        | None -> ());
        if reply <> expect then begin
          incr wrong;
          note
            (Printf.sprintf "%s -> (%b, %S), expected (%b, %S)" line (fst reply)
               (snd reply) (fst expect) (snd expect))
        end;
        if i >= warmup_ops then begin
          if i = warmup_ops then m0 := t0;
          m1 := t1;
          lat := (fi (t1 - t0) *. 1e-6) :: !lat
        end;
        go c (i + 1)
      end
    in
    let errors =
      match Transport.Tcp.Client.connect addr with
      | c ->
        Fun.protect
          ~finally:(fun () -> Transport.Tcp.Client.close c)
          (fun () ->
            match go c 0 with
            | () -> 0
            | exception (Failure msg | Unix.Unix_error (_, msg, _)) ->
              note msg;
              1)
      | exception Unix.Unix_error (_, msg, _) ->
        note msg;
        1
    in
    {
      lat = !lat;
      busy_s = fi (!m1 - !m0) *. 1e-9;
      requests = List.rev !requests;
      answered = !answered;
      wrong = !wrong;
      errors;
      first_error = !first_error;
    }

  (* Every member of each group applied the same number of commands. *)
  let settled kv =
    List.for_all
      (fun g ->
        match Net.Topology.members topology g with
        | [] -> true
        | p :: rest ->
          let n = KV.applied kv p in
          List.for_all (fun q -> KV.applied kv q = n) rest)
      (Net.Topology.all_groups topology)

  let wal_bytes dir =
    List.fold_left
      (fun acc p ->
        let f = Filename.concat dir (Printf.sprintf "kv-p%d.wal" p) in
        acc + if Sys.file_exists f then (Unix.stat f).Unix.st_size else 0)
      0 (Net.Topology.all_pids topology)

  (* Isolated [Wal.append] of a SET-sized record on the same filesystem. *)
  let wal_append_us dir =
    let path = Filename.concat dir "isolated.wal" in
    (try Sys.remove path with Sys_error _ -> ());
    let w = Transport.Wal.create path in
    let record =
      Transport.Kv.encode
        (Transport.Kv.Set ("s0-c0-k0", String.make value_bytes 'v'))
    in
    let xs =
      List.init 2000 (fun _ ->
          let t0 = Timed.now_ns () in
          Transport.Wal.append w record;
          fi (Timed.now_ns () - t0) *. 1e-3)
    in
    Transport.Wal.close w;
    Sys.remove path;
    xs

  (* Per-request spans of a traced round, µs. *)
  type spans = {
    ingress : float list;  (** client write -> cast *)
    wait : float list;  (** cast -> deliver at the contact replica *)
    upcall : float list;  (** WAL + apply + reply write *)
    egress : float list;  (** upcall end -> client read *)
  }

  let no_spans = { ingress = []; wait = []; upcall = []; egress = [] }

  type round = {
    setup : float;
    ops_per_s : float;
    p50 : float;
    p99 : float;
    attempted : int;
    failed : int;
    problems : string list;
    casts : int;
    deliveries : int;
    msgs : int;
    wal : int;  (** WAL bytes, traced rounds only *)
    gc : gc_delta;
    spans : spans;
  }

  (* Joins each client's requests to its contact replica's casts, in
     order; [None] when the counts differ. *)
  let join ~contacts (cs : client array) =
    let all = Timed.message_spans () in
    let per_client i =
      let mine =
        List.filter (fun ((id : Runtime.Msg_id.t), _, _, _) -> id.origin = contacts.(i)) all
        |> List.sort (fun (_, a, _, _) (_, b, _, _) -> compare a b)
      in
      if List.length mine <> List.length cs.(i).requests then None
      else Some (List.combine cs.(i).requests mine)
    in
    let joined = List.init clients per_client in
    if List.mem None joined then None
    else
      let j = List.concat_map Option.get joined in
      let us f = List.map (fun x -> fi (f x) *. 1e-3) j in
      Some
        {
          ingress = us (fun ((sent, _), (_, c, _, _)) -> c - sent);
          wait = us (fun (_, (_, c, u0, _)) -> u0 - c);
          upcall = us (fun (_, (_, _, u0, u1)) -> u1 - u0);
          egress = us (fun ((_, received), (_, _, _, u1)) -> received - u1);
        }

  let round ~dir ~seed ~traced r =
    let probe = Printf.sprintf "s%d-boot" seed in
    let t0 = now () in
    let kv = KV.create ~base_port:(port_of_round r) ~dir topology in
    let booted =
      match Transport.Tcp.Client.connect (KV.addr_of kv (KV.contact_for kv probe)) with
      | c ->
        let reply =
          try Transport.Tcp.Client.request c ("SET " ^ probe ^ " boot")
          with Failure _ | Unix.Unix_error _ -> (false, "")
        in
        Transport.Tcp.Client.close c;
        reply = (true, "OK")
      | exception Unix.Unix_error _ -> false
    in
    let setup = now () -. t0 in
    (* the probe's span is not a client request *)
    Timed.clear_spans ();
    let contacts = Array.init clients (fun i -> KV.contact_for kv (keys seed i).(0)) in
    let results = Array.make clients None in
    let (), gc =
      gc_probe (fun () ->
          Array.init clients (fun i ->
              Thread.create
                (fun () ->
                  let rng = Des.Rng.create ((seed * 7919) + (r * 104729) + i) in
                  results.(i) <-
                    Some
                      (client_loop ~rng ~addr:(KV.addr_of kv contacts.(i))
                         ~keys:(keys seed i) ~record:traced))
                ())
          |> Array.iter Thread.join)
    in
    let cs = Array.map Option.get results in
    let drained = KV.await ~timeout:10.0 (fun () -> settled kv) in
    let consistency = KV.check_consistency kv in
    let rr = KV.run_result kv in
    let checker = Checker.check_all rr in
    (* stopped before the join: a loop records a request's span after
       the reply it sends, so only a stopped cluster has them all *)
    KV.stop kv;
    let spans = if traced then join ~contacts cs else Some no_spans in
    let wal = if traced then wal_bytes dir else 0 in
    Timed.clear_spans ();
    let lat = Array.fold_left (fun acc c -> List.rev_append c.lat acc) [] cs in
    let csum f = Array.fold_left (fun a c -> a + f c) 0 cs in
    {
      setup;
      ops_per_s = Array.fold_left (fun a c -> a +. ratio (fi measured_ops) c.busy_s) 0.0 cs;
      p50 = pct 50.0 lat;
      p99 = pct 99.0 lat;
      attempted = 1 + csum (fun c -> c.answered + c.errors);
      failed = (if booted then 0 else 1) + csum (fun c -> c.wrong + c.errors);
      problems =
        (if booted then [] else [ "kv-a1: set-up request failed" ])
        @ (if drained then [] else [ "kv-a1: replicas did not settle" ])
        @ (if spans = None then [ "kv-a1: requests and casts do not join" ] else [])
        @ consistency @ checker
        @ List.filter_map
            (fun c -> Option.map (fun e -> "kv-a1: client: " ^ e) c.first_error)
            (Array.to_list cs);
      casts = List.length rr.Run_result.casts;
      deliveries = List.length rr.Run_result.deliveries;
      msgs = rr.Run_result.inter_group_msgs + rr.Run_result.intra_group_msgs;
      wal;
      gc;
      spans = Option.value ~default:no_spans spans;
    }

  let phase ~dir ~seed ~seconds ~traced =
    Host_speed.reset ();
    Timed.reset ();
    Timed.tracing := traced;
    Timed.msg_spans := traced;
    let rounds =
      repeat ~seconds ~min_reps:3 (fun r ->
          let x = round ~dir ~seed ~traced r in
          (* The round's cluster is stopped; collected before the next
             boots, it leaves one cluster at a time on the heap, so the
             peak does not hang on when its garbage gets collected. *)
          Gc.full_major ();
          (* with no cluster running, so that the loop reads the host
             alone *)
          Host_speed.sample 5;
          x)
    in
    Timed.tracing := false;
    let host = Host_speed.factor () in
    Timed.msg_spans := false;
    let med f = median (List.map f rounds) in
    let total f = List.fold_left (fun a x -> a + f x) 0 rounds in
    let casts = total (fun x -> x.casts) in
    let deliveries = total (fun x -> x.deliveries) in
    let layers =
      if not traced then []
      else
        let spans f = List.concat_map (fun x -> f x.spans) rounds in
        let ingress = spans (fun s -> s.ingress) and wait = spans (fun s -> s.wait) in
        let upcall = spans (fun s -> s.upcall) and egress = spans (fun s -> s.egress) in
        let wal = wal_append_us dir in
        [
          ("amcast.wait_us_p50", pct 50.0 wait);
          ("amcast.wait_us_p99", pct 99.0 wait);
          ("transport.ingress_us_p50", pct 50.0 ingress);
          ("transport.ingress_us_p99", pct 99.0 ingress);
          ("transport.upcall_us_p50", pct 50.0 upcall);
          ("transport.upcall_us_p99", pct 99.0 upcall);
          ("transport.egress_us_p50", pct 50.0 egress);
          ("transport.egress_us_p99", pct 99.0 egress);
          ("transport.wal_append_us_p50", pct 50.0 wal);
          ("transport.wal_append_us_p99", pct 99.0 wal);
          ("transport.wal_bytes_per_op", ratio (fi (total (fun x -> x.wal))) (fi casts));
          ("transport.msgs_per_op", ratio (fi (total (fun x -> x.msgs))) (fi casts));
        ]
        @ layer_block (Timed.totals ()) ~casts ~deliveries ~per:1.0 ~ops:casts
    in
    {
      attempted = total (fun x -> x.attempted);
      failed = total (fun x -> x.failed);
      problems = List.concat_map (fun x -> x.problems) rounds;
      setup_s = med (fun x -> x.setup) *. host;
      ops_per_s = med (fun x -> x.ops_per_s) /. host;
      lat_p50_ms = med (fun x -> x.p50) *. host;
      lat_p99_ms = med (fun x -> x.p99) *. host;
      gc_minor_per_delivery =
        ratio (sum (fun x -> x.gc.minor_words) rounds) (fi deliveries);
      gc_majors = med (fun x -> fi x.gc.majors);
      layers;
      host_factor = host;
    }
end

(* ---------- main ---------- *)

let workloads = [ "kv-a1"; "sim-a1-saturate"; "sim-a2-faults"; "mc-a1" ]

let run_phase ~work_dir ~workload ~seed ~seconds ~traced =
  match workload with
  | "kv-a1" -> Kv_a1.phase ~dir:work_dir ~seed ~seconds ~traced
  | "sim-a1-saturate" -> Sim_a1.phase ~seed ~seconds ~traced
  | "sim-a2-faults" -> Sim_a2.phase ~seed ~seconds ~traced
  | "mc-a1" -> Mc_a1.phase ~seed ~seconds ~traced
  | w -> invalid_arg ("unknown workload " ^ w)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
       ms)

let end_to_end (p : phase) =
  [
    ("setup_s", p.setup_s, "s");
    ("ops_per_s", p.ops_per_s, "1/s");
    ("lat_p50_ms", p.lat_p50_ms, "ms");
    ("lat_p99_ms", p.lat_p99_ms, "ms");
    ("mem.top_heap_mb", mem_mb (), "MB");
  ]

(* Every per-layer metric with its unit, in report order. A traced run
   reports all of them; a layer a workload does not exercise reads 0. *)
let per_layer =
  [
    ("des.events", "count");
    ("des.events_per_s", "1/s");
    ("des.engine_s", "s");
    ("net.intra_per_delivery", "count");
    ("net.inter_per_cast", "count");
    ("consensus.msgs_per_cast", "count");
    ("consensus.handler_s", "s");
    ("consensus.handler_us_per_op", "us");
    ("rmcast.msgs_per_cast", "count");
    ("rmcast.handler_s", "s");
    ("rmcast.handler_us_per_op", "us");
    ("amcast.inter_per_cast", "count");
    ("amcast.handler_s", "s");
    ("amcast.cast_s", "s");
    ("amcast.casts_per_batch", "count");
    ("amcast.pipeline_depth_max", "count");
    ("amcast.wait_us_p50", "us");
    ("amcast.wait_us_p99", "us");
    ("sim.degree_mean", "count");
    ("fd.msgs_per_cast", "count");
    ("fd.handler_s", "s");
    ("runtime.timer_s", "s");
    ("harness.check_s", "s");
    ("harness.check_share", "ratio");
    ("harness.upcall_s", "s");
    ("mc.interleavings", "count");
    ("mc.replays", "count");
    ("mc.events_per_replay", "count");
    ("mc.sleep_prunes", "count");
    ("mc.explore_s", "s");
    ("mc.exec_s", "s");
    ("mc.search_s", "s");
    ("transport.ingress_us_p50", "us");
    ("transport.ingress_us_p99", "us");
    ("transport.upcall_us_p50", "us");
    ("transport.upcall_us_p99", "us");
    ("transport.egress_us_p50", "us");
    ("transport.egress_us_p99", "us");
    ("transport.wal_append_us_p50", "us");
    ("transport.wal_append_us_p99", "us");
    ("transport.wal_bytes_per_op", "B");
    ("transport.msgs_per_op", "count");
    ("gc.minor_words_per_delivery", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_frac", "ratio");
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (kv-a1|sim-a1-saturate|sim-a2-faults|mc-a1) --seed N \
     --seconds S --trace 0|1 --work-dir DIR";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and work_dir = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      parse rest
    | "--work-dir" :: v :: rest -> work_dir := v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, traced =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr
      when t > 0.0 && List.mem !workload workloads && !work_dir <> "" ->
      (s, t, tr)
    | _ -> usage ()
  in
  if not (Sys.file_exists !work_dir) then Unix.mkdir !work_dir 0o755;
  let workload = !workload and work_dir = !work_dir in
  Printf.printf
    "{\"host\": {\"recommended_domain_count\": %d, \"ocaml_version\": %S, \"workload\": %S, \
     \"seed\": %d, \"seconds\": %s, \"trace\": %d}}\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version workload seed (json_float seconds) (Bool.to_int traced);
  let phases, metrics =
    if not traced then
      let p = run_phase ~work_dir ~workload ~seed ~seconds ~traced:false in
      ([ p ], end_to_end p)
    else
      let u = run_phase ~work_dir ~workload ~seed ~seconds:(seconds /. 2.0) ~traced:false in
      let t = run_phase ~work_dir ~workload ~seed ~seconds:(seconds /. 2.0) ~traced:true in
      let given =
        t.layers
        @ [
            ("gc.minor_words_per_delivery", u.gc_minor_per_delivery);
            ("gc.major_collections", u.gc_majors);
            ("trace.overhead_frac", ratio u.ops_per_s t.ops_per_s);
          ]
      in
      List.iter
        (fun (n, _) ->
          if not (List.mem_assoc n per_layer) then invalid_arg ("unlisted metric " ^ n))
        given;
      ( [ u; t ],
        List.map
          (fun (n, unit) -> (n, Option.value ~default:0.0 (List.assoc_opt n given), unit))
          per_layer )
  in
  let attempted = List.fold_left (fun a (p : phase) -> a + p.attempted) 0 phases in
  let failed = List.fold_left (fun a (p : phase) -> a + p.failed) 0 phases in
  let problems = List.concat_map (fun (p : phase) -> p.problems) phases in
  List.iter (fun pr -> Printf.printf "FAIL %s\n" pr) problems;
  List.iter
    (fun (p : phase) ->
      Printf.printf "host speed: wall seconds x %.4f = reference seconds\n" p.host_factor)
    phases;
  List.iter (fun (n, v, u) -> Printf.printf "%-34s %16.6f %s\n" n v u) metrics;
  let correct = problems = [] && failed = 0 && attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics metrics);
  exit (if correct then 0 else 1)
