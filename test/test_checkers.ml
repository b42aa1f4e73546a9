(* Differential tests for the indexed delivery paths and single-pass
   checkers: the ordered-pending index against a sorted-list model, and
   each fast checker against the retained naive reference implementation,
   on hand-built runs with known violations and on randomised soak-style
   runs. *)

open Des
open Net
open Runtime

(* ----- Pending_index vs sorted-list model ----- *)

let prop_pending_index_model ops =
  (* Random add/remove/reposition/pop interleavings against a sorted-list
     model. Handles are issued densely, so a raw integer exercises live
     handles, already-removed ones (must be a no-op) and out-of-range
     ones. Every entry gets a distinct id, as the protocols guarantee, so
     the (ts, id) order is total and the model deterministic. *)
  let module Pi = Amcast.Pending_index in
  let q = Pi.create () in
  (* model: live (ts, id, handle) triples *)
  let model = ref [] in
  let next_id = ref 0 in
  let fresh_id () =
    let id = Msg_id.make ~origin:0 ~seq:!next_id in
    incr next_id;
    id
  in
  let sorted () =
    List.sort
      (fun (t1, i1, _) (t2, i2, _) ->
        let c = Int.compare t1 t2 in
        if c <> 0 then c else Msg_id.compare i1 i2)
      !model
  in
  let step_ok op =
    match op with
    | `Add ts ->
      let id = fresh_id () in
      let h = Pi.add q ~ts ~id () in
      model := (ts, id, h) :: !model;
      true
    | `Remove k ->
      Pi.remove q k;
      model := List.filter (fun (_, _, h) -> h <> k) !model;
      true
    | `Repos (k, ts) -> (
      (* Only live handles may be repositioned (the callers' contract). *)
      match List.find_opt (fun (_, _, h) -> h = k) !model with
      | None -> true
      | Some (_, id, _) ->
        let h' = Pi.reposition q k ~ts ~id () in
        model :=
          (ts, id, h') :: List.filter (fun (_, _, h) -> h <> k) !model;
        true)
    | `Pop -> (
      match (Pi.pop_min q, sorted ()) with
      | None, [] -> true
      | Some (ts, id, ()), (ts', id', h') :: _ ->
        model := List.filter (fun (_, _, h) -> h <> h') !model;
        ts = ts' && Msg_id.equal id id'
      | Some _, [] | None, _ :: _ -> false)
  in
  List.for_all
    (fun op ->
      step_ok op
      && Pi.size q = List.length !model
      && (match (Pi.min_elt q, sorted ()) with
         | None, [] -> true
         | Some (ts, id, ()), (ts', id', _) :: _ ->
           ts = ts' && Msg_id.equal id id'
         | _ -> false)
      && List.length (Pi.to_sorted_list q) = List.length (sorted ())
      && List.for_all2
           (fun ((ts : int), id, ()) ((ts' : int), id', (_ : int)) ->
             ts = ts' && Msg_id.equal id id')
           (Pi.to_sorted_list q) (sorted ())
      && Pi.is_empty q = (!model = []))
    ops

let pending_index_ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 120)
      (frequency
         [
           (4, map (fun t -> `Add t) (int_bound 500));
           (2, map (fun k -> `Remove k) (int_range (-2) 200));
           (2, map2 (fun k t -> `Repos (k, t)) (int_range (-2) 200) (int_bound 500));
           (3, pure `Pop);
         ]))

(* ----- Hand-built runs with known violations ----- *)

let sorted_violations vs = List.sort_uniq String.compare vs

let check_same_violations what expected_nonempty fast reference =
  let f = sorted_violations fast and n = sorted_violations reference in
  Alcotest.(check (list string)) (what ^ ": fast = reference") n f;
  if expected_nonempty then
    Alcotest.(check bool) (what ^ ": violations found") true (f <> [])

let mk_run ?(trace = Trace.create ()) ~topo ~casts ~deliveries () =
  Harness.Run_result.make ~topology:topo ~casts ~deliveries ~crashed:[]
    ~trace ~inter_group_msgs:0 ~intra_group_msgs:0
    ~end_time:(Sim_time.of_ms 10) ~drained:true ~events_executed:0 ()

let test_prefix_differential_synthetic () =
  (* p0 delivers m0 m1; p1 delivers m1 m0: a prefix-order violation both
     checkers must report identically (the fast path falls back to the
     reference on detection, so even the strings must match). *)
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let id0 = Msg_id.make ~origin:0 ~seq:0 in
  let id1 = Msg_id.make ~origin:1 ~seq:0 in
  let m0 = Amcast.Msg.make ~id:id0 ~dest:[ 0; 1 ] "a" in
  let m1 = Amcast.Msg.make ~id:id1 ~dest:[ 0; 1 ] "b" in
  let mk_del pid msg at lc =
    { Harness.Run_result.pid; msg; at = Sim_time.of_ms at; lc }
  in
  let r =
    mk_run ~topo
      ~casts:
        [
          { msg = m0; origin = 0; at = Sim_time.of_ms 1; lc = 0 };
          { msg = m1; origin = 1; at = Sim_time.of_ms 1; lc = 0 };
        ]
      ~deliveries:
        [
          mk_del 0 m0 2 1;
          mk_del 0 m1 3 1;
          mk_del 1 m1 2 1;
          mk_del 1 m0 3 1;
          mk_del 2 m0 2 1;
          mk_del 2 m1 3 1;
          mk_del 3 m1 2 1;
          mk_del 3 m0 3 1;
        ]
      ()
  in
  check_same_violations "prefix" true
    (Harness.Checker.uniform_prefix_order r)
    (Harness.Checker.Reference.uniform_prefix_order r)

let test_prefix_differential_clean () =
  (* Same shape, consistent order: both checkers must accept. *)
  let topo = Topology.symmetric ~groups:2 ~per_group:2 in
  let id0 = Msg_id.make ~origin:0 ~seq:0 in
  let id1 = Msg_id.make ~origin:1 ~seq:0 in
  let m0 = Amcast.Msg.make ~id:id0 ~dest:[ 0; 1 ] "a" in
  let m1 = Amcast.Msg.make ~id:id1 ~dest:[ 0; 1 ] "b" in
  let mk_del pid msg at lc =
    { Harness.Run_result.pid; msg; at = Sim_time.of_ms at; lc }
  in
  let r =
    mk_run ~topo
      ~casts:
        [
          { msg = m0; origin = 0; at = Sim_time.of_ms 1; lc = 0 };
          { msg = m1; origin = 1; at = Sim_time.of_ms 1; lc = 0 };
        ]
      ~deliveries:
        (List.concat_map
           (fun pid -> [ mk_del pid m0 2 1; mk_del pid m1 3 1 ])
           [ 0; 1; 2; 3 ])
      ()
  in
  check_same_violations "prefix-clean" false
    (Harness.Checker.uniform_prefix_order r)
    (Harness.Checker.Reference.uniform_prefix_order r);
  Alcotest.(check (list string)) "clean run accepted" []
    (Harness.Checker.uniform_prefix_order r)

let test_causal_differential_synthetic () =
  (* cast(m1) happened-before cast(m2) via an intra-group message, yet
     every process delivers m2 first: both causal checkers must flag both
     deliverers, with identical violation sets. *)
  let topo = Topology.symmetric ~groups:1 ~per_group:2 in
  let id1 = Msg_id.make ~origin:1 ~seq:0 in
  let id2 = Msg_id.make ~origin:0 ~seq:0 in
  let m1 = Amcast.Msg.make ~id:id1 ~dest:[ 0 ] "a" in
  let m2 = Amcast.Msg.make ~id:id2 ~dest:[ 0 ] "b" in
  let trace = Trace.create () in
  let t ms = Sim_time.of_ms ms in
  Trace.record trace (Trace.Cast { time = t 1; pid = 1; id = id1; lc = 1 });
  Trace.record trace
    (Trace.Send
       {
         time = t 1;
         src = 1;
         dst = 0;
         inter_group = false;
         lc = 1;
         tag = "x.data";
         env = 1;
       });
  Trace.record trace
    (Trace.Receive { time = t 2; src = 1; dst = 0; lc = 2; env = 1 });
  Trace.record trace (Trace.Cast { time = t 3; pid = 0; id = id2; lc = 3 });
  let mk_del pid msg at lc =
    { Harness.Run_result.pid; msg; at = Sim_time.of_ms at; lc }
  in
  let r =
    mk_run ~trace ~topo
      ~casts:
        [
          { msg = m1; origin = 1; at = t 1; lc = 1 };
          { msg = m2; origin = 0; at = t 3; lc = 3 };
        ]
      ~deliveries:
        [
          mk_del 0 m2 4 4;
          mk_del 1 m2 4 4;
          mk_del 0 m1 5 5;
          mk_del 1 m1 5 5;
        ]
      ()
  in
  check_same_violations "causal" true
    (Harness.Checker.causal_delivery_order r)
    (Harness.Checker.Reference.causal_delivery_order r);
  Alcotest.(check int) "one violation per deliverer" 2
    (List.length
       (sorted_violations (Harness.Checker.causal_delivery_order r)))

(* ----- Randomised soak-style differentials ----- *)

type scenario = {
  groups : int;
  per_group : int;
  seed : int;
  wseed : int;
  n_msgs : int;
  jitter : bool;
  crashes : bool;
}

let pp_scenario s =
  Fmt.str "{groups=%d; d=%d; seed=%d; wseed=%d; n=%d; jitter=%b; crashes=%b}"
    s.groups s.per_group s.seed s.wseed s.n_msgs s.jitter s.crashes

let scenario_gen =
  let open QCheck2.Gen in
  let* groups = int_range 2 4 in
  let* per_group = int_range 1 3 in
  let* seed = int_bound 1_000_000 in
  let* wseed = int_bound 1_000_000 in
  let* n_msgs = int_range 1 12 in
  let* jitter = bool in
  let+ crashes = bool in
  { groups; per_group; seed; wseed; n_msgs; jitter; crashes }

let crash_faults s topo =
  if not s.crashes then []
  else begin
    let rng = Rng.create (s.seed + 7919) in
    List.concat_map
      (fun g ->
        let members = Topology.members topo g in
        let crashable = (List.length members - 1) / 2 in
        if crashable = 0 || Rng.bool rng then []
        else
          Rng.sample_without_replacement rng crashable members
          |> List.map (fun pid ->
                 {
                   Harness.Runner.at = Sim_time.of_ms (1 + Rng.int rng 200);
                   pid;
                   drop = Runtime.Engine.Keep_inflight;
                 }))
      (Topology.all_groups topo)
  end

let run_scenario (module P : Amcast.Protocol.S) ~broadcast s =
  let module R = Harness.Runner.Make (P) in
  let topo = Topology.symmetric ~groups:s.groups ~per_group:s.per_group in
  let latency = if s.jitter then Latency.wan_default else Util.crisp_latency in
  let rng = Rng.create s.wseed in
  let workload =
    Harness.Workload.generate ~rng ~topology:topo ~n:s.n_msgs
      ~dest:
        (if broadcast then Harness.Workload.To_all_groups
         else Harness.Workload.Random_groups s.groups)
      ~arrival:(`Poisson (Sim_time.of_ms 20))
      ()
  in
  R.run ~seed:s.seed ~latency ~faults:(crash_faults s topo) topo workload

(* The indexed Run_result accessors against direct recomputation from the
   raw event lists. *)
let naive_correct (r : Harness.Run_result.t) pid =
  not (List.mem pid r.crashed)

let naive_sequence_of (r : Harness.Run_result.t) pid =
  List.filter_map
    (fun (d : Harness.Run_result.delivery_event) ->
      if d.pid = pid then Some d.msg else None)
    r.deliveries

let naive_delivered_everywhere_needed (r : Harness.Run_result.t) id =
  match
    List.find_opt
      (fun (c : Harness.Run_result.cast_event) ->
        Msg_id.equal c.msg.Amcast.Msg.id id)
      r.casts
  with
  | None -> false
  | Some c ->
    List.for_all
      (fun p ->
        (not (naive_correct r p))
        || List.exists
             (fun (d : Harness.Run_result.delivery_event) ->
               d.pid = p && Msg_id.equal d.msg.Amcast.Msg.id id)
             r.deliveries)
      (Amcast.Msg.dest_pids r.topology c.msg)

let differential_ok s r =
  let pids = Topology.all_pids r.Harness.Run_result.topology in
  let fail fmt = QCheck2.Test.fail_reportf fmt (pp_scenario s) in
  (* indexed accessors *)
  List.for_all
    (fun p ->
      Harness.Run_result.correct r p = naive_correct r p
      || fail "correct mismatch in %s")
    pids
  && List.for_all
       (fun p ->
         List.equal Amcast.Msg.equal_id
           (Harness.Run_result.sequence_of r p)
           (naive_sequence_of r p)
         || fail "sequence_of mismatch in %s")
       pids
  && List.for_all
       (fun (c : Harness.Run_result.cast_event) ->
         let id = c.msg.Amcast.Msg.id in
         Harness.Run_result.delivered_everywhere_needed r id
         = naive_delivered_everywhere_needed r id
         || fail "delivered_everywhere_needed mismatch in %s")
       r.casts
  (* fast checkers vs naive references *)
  && (sorted_violations (Harness.Checker.uniform_prefix_order r)
      = sorted_violations (Harness.Checker.Reference.uniform_prefix_order r)
     || fail "prefix differential mismatch in %s")
  && (Harness.Checker.genuineness r
      = Harness.Checker.Reference.genuineness r
     || fail "genuineness differential mismatch in %s")
  && (sorted_violations (Harness.Checker.causal_delivery_order r)
      = sorted_violations
          (Harness.Checker.Reference.causal_delivery_order r)
     || fail "causal differential mismatch in %s")

let prop_differential_a1 s =
  differential_ok s (run_scenario (module Amcast.A1) ~broadcast:false s)

let prop_differential_a2 s =
  (* A2 with crashes and tight arrivals does produce genuine causal-order
     violations (same-round chains); the differential must hold on those
     non-empty violation sets too. *)
  differential_ok s (run_scenario (module Amcast.A2) ~broadcast:true s)

let prop_differential_skeen s =
  differential_ok s
    (run_scenario (module Amcast.Skeen) ~broadcast:false
       { s with crashes = false })

(* [deliveries_of] answers from a by-id table built on first use; it must
   return exactly the events the plain filter over [deliveries] does, in
   the same order, for every cast id and for an id nobody cast. *)
let prop_deliveries_of s =
  let r = run_scenario (module Amcast.A2) ~broadcast:true s in
  let filter id =
    List.filter
      (fun (d : Harness.Run_result.delivery_event) ->
        Msg_id.equal d.msg.Amcast.Msg.id id)
      r.deliveries
  in
  let ids =
    Msg_id.make ~origin:0 ~seq:max_int
    :: List.map
         (fun (c : Harness.Run_result.cast_event) -> c.msg.Amcast.Msg.id)
         r.casts
  in
  List.for_all
    (fun id ->
      List.equal ( == ) (Harness.Run_result.deliveries_of r id) (filter id)
      || QCheck2.Test.fail_reportf "deliveries_of mismatch in %s"
           (pp_scenario s))
    ids

let suites =
  [
    ( "checkers",
      [
        Util.qcheck_case ~count:150 ~name:"pending index matches model"
          pending_index_ops_gen prop_pending_index_model;
        Alcotest.test_case "prefix differential (violating run)" `Quick
          test_prefix_differential_synthetic;
        Alcotest.test_case "prefix differential (clean run)" `Quick
          test_prefix_differential_clean;
        Alcotest.test_case "causal differential (violating run)" `Quick
          test_causal_differential_synthetic;
        Util.qcheck_case ~count:20 ~name:"a1: fast checkers = reference"
          scenario_gen prop_differential_a1;
        Util.qcheck_case ~count:20 ~name:"a2: fast checkers = reference"
          scenario_gen prop_differential_a2;
        Util.qcheck_case ~count:15 ~name:"skeen: fast checkers = reference"
          scenario_gen prop_differential_skeen;
        Util.qcheck_case ~count:20 ~name:"deliveries_of = filter over deliveries"
          scenario_gen prop_deliveries_of;
      ] );
  ]
