(** The distributed pipelines, built once: the Sec. 5.1, Sec. 5.2 and
    Sec. 6 pipelines cut into [k] per-shard sessions organised as a
    {!Plan}.  Every in-process engine and every daemon runs these
    plans; [shards = 1] is the unsharded pipeline.

    {2 What [shards = 1] preserves}

    For any [k] the merged result is bit-identical to the central
    [Driver]'s from an equal-positioned generator, and payload bytes
    ([MS]) do not depend on [k].  At [k = 1] the charged round and
    message counts also equal the central [NR]/[NM].  Two things are
    the plan's own and differ from a single hand-sequenced session:
    the phase map carries a separate [p2-verdict] phase (the Protocol 2
    wrap announcement is its own stage, so the [p2-shares] rows lose
    that round), and the non-exclusive Protocol 5 class sessions run as
    one concurrent [p5-classes] stage rather than one after another.
    On the transport engines each stage is its own connection group,
    so framed bytes follow the stage cut too.

    {2 Permute-then-shard}

    Sharding must not change what any party learns.  All joint
    randomness — the pair obfuscation, the batched Protocol 2 pieces,
    masks and {e the secret permutation}, the Protocol 6 keygen and
    encryptions — is drawn at plan-build time in exactly the unsharded
    (central) order; shards are then contiguous chunks of the {e
    already-permuted} published order.  The shard boundary is therefore
    a public function of published sizes and [k] alone, and leaks
    nothing about which counters landed in which shard; and because no
    draw depends on [k], every shard count merges to bit-identical
    results (DESIGN.md, "Sharded execution").

    For the link pipelines the n + q counter groups (n user counters,
    then the q published pair groups) are partitioned; each shard gets
    its own pair-slice publication and verdict-less Protocol 2 core
    ({!Spe_mpc.Protocol2_distributed.make_core}), one full-batch
    verdict session announces all wraps in a single [Bits] message
    (byte-identical to the unsharded announcement), and per-shard
    masking sessions scatter into the host's masked arrays.  For the
    score pipeline the {e action} range of the Protocol 6 bundle relay
    is partitioned ({!Protocol6_distributed.prepare}); the activity
    Protocol 2 and the final unmasking stay single-session.  In both
    cases per-shard payload bytes sum exactly to the unsharded totals
    ([MS] invariant), while rounds and message counts grow with [k] by
    the closed forms in DESIGN.md. *)

val links_exclusive :
  Spe_rng.State.t ->
  graph:Spe_graph.Digraph.t ->
  logs:Spe_actionlog.Log.t array ->
  shards:int ->
  Protocol4.config ->
  Protocol4.result Plan.t
(** The Sec. 5.1 pipeline over exclusive provider logs, cut into
    [min shards (n + q)] shards.  The plan's strengths equal
    [Driver.link_strengths_exclusive]'s on any engine, for any
    [shards >= 1].  Raises [Invalid_argument] on the parameter
    violations of {!Protocol4.run}, fewer than two providers, a log
    over another user universe, or [shards < 1]. *)

val links_non_exclusive :
  Spe_rng.State.t ->
  graph:Spe_graph.Digraph.t ->
  logs:Spe_actionlog.Log.t array ->
  spec:Spe_actionlog.Partition.class_spec ->
  obfuscation:Protocol5.obfuscation ->
  shards:int ->
  Protocol4.config ->
  Protocol4.result Plan.t
(** The Sec. 5.2 pipeline: the Protocol 5 class sessions (built in
    class order, the central driver's draws and trusted-party seating)
    run as one concurrent pre-stage, then the sharded Protocol 4 core,
    each class representative reading its class counters.  The plan's
    strengths equal [Driver.link_strengths_non_exclusive]'s.  Raises
    [Invalid_argument] if [spec] disagrees with the logs. *)

val user_scores_exclusive :
  Spe_rng.State.t ->
  graph:Spe_graph.Digraph.t ->
  logs:Spe_actionlog.Log.t array ->
  tau:int ->
  modulus:int ->
  shards:int ->
  Protocol6.config ->
  Driver_distributed.scores Plan.t
(** The Sec. 6 pipeline: {!Protocol6_distributed} for the propagation
    graphs, with its bundle relay cut into [min shards num_actions]
    action-range shards, then the batched Protocol 2 over the activity
    counters and {!Driver_distributed.scores_final_phase}.  The plan
    result equals [Driver.user_scores_exclusive]'s scores and graphs.
    Raises [Invalid_argument] on fewer than two providers, a negative
    [tau], [modulus <= A] or [shards < 1]. *)
