(** The pieces of the Sec. 6 score pipeline that [Shard] composes into
    its plan: the result record and the final unmasking phase.  The
    pipelines themselves are built once, as {!Plan}s, in [Shard]; at
    [shards = 1] their lowering ({!Plan.to_session}) is the unsharded
    distributed pipeline. *)

type scores = {
  scores : float array;  (** [score(v_i)] per user (Def. 3.3). *)
  graphs : Spe_influence.Propagation.t array;
      (** The propagation graphs the host reconstructed. *)
}

val scores_final_phase :
  n:int ->
  p0:Spe_mpc.Wire.party ->
  p1:Spe_mpc.Wire.party ->
  masks:float array ->
  blinds:float array ->
  share1:(unit -> int array) ->
  share2:(unit -> int array) ->
  numerators_of:(unit -> int array) ->
  float array Spe_mpc.Session.t
(** The five-round final unmasking phase ([scores-final]) on its own:
    mask agreement, masked denominators to the host, and the blinded
    round-trip host -> player 1 -> host, the host dividing out its
    blinds at the finishing call.  [share1]/[share2] read the players'
    Protocol 2 activity shares and [numerators_of] the Protocol 6
    sphere totals; all three are forced only once the phase is
    executing, so whichever earlier plan stages deliver them may run
    first.  The session result is the score vector. *)
