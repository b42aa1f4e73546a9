(** Controlled stepping of a deployment's scheduler.

    The model checker replaces the scheduler's time-ordered pop with an
    enumerable {e choice set}: at each step the adversary picks one of the
    currently eligible events. The policy separates two classes by their
    {!Des.Scheduler.Tag}:

    - {e anytime} events (message deliveries, crashes) model asynchrony the
      adversary controls — a pending delivery may be executed at any step,
      regardless of its nominal arrival time;
    - {e timed} events (timers, workload casts, generic actions) are
      anchored to the local clocks, which the adversary does not control:
      only the earliest pending timed event (in [(time, seq)] order) is
      eligible, so timed events execute in timestamp order among
      themselves.

    Choices are listed in canonical [(time, seq)] order, so {e choice 0 is
    exactly the event the normal scheduler would pop}: an all-zeros choice
    sequence replays the natural run, and a counterexample is fully
    described by its non-default prefix ({!run} pads with zeros).

    Breadth is bounded by a {e reorder bound} (delay-bounded scheduling):
    each execution of a non-default choice (index > 0 — the adversary
    delays every eligible event ahead of it) spends one unit of a per-path
    budget; once spent, only the default choice remains eligible. With an
    unlimited bound (the default) the admitted schedule space is every
    interleaving of pending anytime events — combinatorial in the number
    of messages per process; with bound [k] it is every schedule reachable
    with at most [k] scheduling deviations, which is what makes exhaustive
    exploration of realistic configurations tractable.

    Timeout races are bounded by a {e spurious-timer budget}: a timer
    choice taken while deliveries are still pending is "spurious" (the
    timeout fired before the message it guards). Each path may contain at
    most [spurious_timers] such firings; past the budget, timer choices are
    suppressed whenever an anytime choice exists. Timers remain eligible
    when they are all that is left, so runs always drain. The suppression
    state is a pure function of the choice prefix, keeping replay
    deterministic. *)

type choice = {
  handle : Des.Scheduler.handle;
  time : Des.Sim_time.t;  (** Nominal (scheduled) time of the event. *)
  tag : Des.Scheduler.Tag.t;
}

type t

val create :
  ?spurious_timers:int -> ?reorder_bound:int -> Des.Scheduler.t -> t
(** A driver over [sched]. [spurious_timers] (default 0) is the per-path
    budget of timer firings taken while anytime events were pending;
    [reorder_bound] (default unlimited) the per-path budget of
    non-default choices. *)

val choices : t -> choice list
(** The current choice set, in canonical [(time, seq)] order. Empty iff
    the deployment is quiescent. *)

val step : t -> int -> choice
(** [step t i] executes choice [i] of {!choices} and returns it. Indices
    out of range are clamped to the valid interval (so any [int list] is a
    runnable schedule — used by the random-schedule differential tests);
    on a clamped index the {e clamped} choice is executed.
    @raise Invalid_argument if the deployment is quiescent. *)

val step_in : t -> choice list -> int -> choice
(** [step_in t cs i] is [step t i] for a caller that already holds [cs] =
    [choices t], which {!step} would otherwise rebuild. *)

val commutes : choice -> choice -> bool
(** Independence for sleep sets: both choices are process-local event
    kinds (delivery, timer, cast) at {e different} processes. Crashes and
    generic events are conservatively dependent with everything (a crash
    can cancel other processes' in-flight messages). *)

val lone_after : t -> choice list -> int -> choice option
(** [lone_after t cs i], with [cs] = [choices t], is [Some c0] when
    executing choice [i] is certain to leave exactly [[c0]] — the current
    choice 0 — as the next choice set; it executes nothing. That holds when
    [i > 0] spends the last unit of the reorder budget and choice [i]
    {!commutes} with [c0]:
    - a commuting choice cannot disable [c0] (sleep sets assume the same);
    - every event it schedules sorts after [c0], because
      {!Des.Scheduler.at_tagged} clamps times to the clock, which executing
      it leaves at or past its own nominal time, itself no earlier than
      [c0]'s, and sequence numbers only grow;
    - [c0] passes the spurious-timer filter as before: if [c0] is a timer,
      choice [i] is an anytime event and leaves the timer budget alone.

    Past the budget only the head of the eligible list is offered, and
    that head is [c0]. [None] when any condition fails or [i] is out of
    range. *)

val steps : t -> int
(** Choices executed so far. *)

val finished : t -> bool

val run : ?max_steps:int -> t -> int list -> int list
(** [run t cs] executes the choices [cs] (clamped as in {!step}), then
    pads with choice 0 until the deployment drains; returns the full
    executed index sequence (after clamping). [max_steps] (default
    200_000) bounds runaway schedules.
    @raise Failure if the deployment is still live after [max_steps]. *)
