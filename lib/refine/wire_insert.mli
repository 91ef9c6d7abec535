open Import

(** Interconnect-delay refinement — Figure 1 (d)/(e).

    After the floorplanner has placed the functional units, every data
    transfer between two distant units costs extra cycles. A hard
    scheduler must either have assumed the worst everywhere or be
    re-run; the soft scheduler inserts a [Wire] pseudo-operation on each
    affected data edge and keeps going. *)

type report = {
  inserted : Graph.vertex list;  (** the wire-delay vertices added *)
  total_wire_cycles : int;
}

val apply :
  Threaded_graph.t -> Floorplan.t -> Floorplan.delay_model -> report
(** For every data edge whose producer and consumer sit on different
    units at non-trivial distance, splice a [Wire] vertex with the
    modelled delay into the graph and schedule it (free — wires are not
    shared resources). Idempotent: already-inserted wire vertices are
    not re-refined. *)

type comparison = {
  original_csteps : int;  (** ignoring interconnect, as traditional HLS *)
  soft_csteps : int;  (** after soft wire-delay refinement *)
  pessimistic_csteps : int;
      (** every cross-unit transfer assumed to cost the worst-case
          delay, the "pessimistic estimate" escape of Section 1 *)
}

val compare_strategies :
  resources:Resources.t -> meta:Meta.t -> Graph.t -> comparison
(** Full experiment on a fresh copy of [graph] under
    {!Floorplan.default_model}: schedule ignoring wires, place, then
    (a) refine softly with actual delays and (b) rebuild a schedule
    where every cross-unit edge carries the worst-case delay. *)
