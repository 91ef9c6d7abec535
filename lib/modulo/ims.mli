open Import

(** Iterative modulo scheduling (Rau), in the soft-scheduling spirit:
    the schedule under construction is {e refined} when an operation
    fails to place — conflicting operations are evicted back onto the
    worklist and re-placed one slot later — rather than the whole II
    attempt being invalidated.

    {!run} searches the initiation interval upward from {!Mii.mii}.
    Each candidate II gets a placement budget; within it, operations
    are placed highest-height-first at their earliest recurrence-
    feasible start, scanning [II] consecutive slots of the modulo
    reservation table. When no slot fits, the operation is forced in
    and the conflicting occupants (lowest height first) plus any
    now-violated successors are evicted. If every candidate up to the
    serial fallback's II exhausts its budget, the serial fallback — the
    loop body list-scheduled, II = its length — is returned; it is
    always valid, so {!run} only fails on an unschedulable kernel (a
    needed unit class with zero units, or a zero-distance cycle) or an
    MII past the cycle cap. *)

type stats = {
  mii : int;  (** the bound the search started from *)
  res_mii : int;
  rec_mii : int;
  ii : int;  (** achieved initiation interval *)
  placements : int;  (** scheduling steps across every II tried *)
  evictions : int;  (** operations displaced by a forced placement *)
  iis_tried : int;
  serial_fallback : bool;  (** true: budget ran out, body schedule used *)
}

val run :
  ?budget:int ->
  resources:Resources.t ->
  Loop_graph.t ->
  (Mschedule.t * stats, string) result
(** [budget] is the per-candidate-II placement allowance, default
    [max 128 (8 * n_vertices)]. The search stops at the serial
    fallback's length (searching past it is pointless).
    The result passes [Mschedule.check ~resources] by construction;
    determinism: same kernel, same resources, same schedule. [Error]
    on an ill-formed kernel or one the resources cannot execute
    ({!Resources.check}). @raise Failure, naming both, when the MII is
    past {!Schedule.cycle_cap}. *)
