"""Fault injection: composable link perturbations, injectors, chaos soak.

The paper's U-Net "offers no retransmission or flow control" (Section
3.1); everything above it must earn its reliability.  This package
supplies the adversary: perturbation models (:mod:`~repro.faults.perturb`)
composed into pipelines attached to either substrate's delivery hook
(:mod:`~repro.faults.inject`), endpoint-level faults — receivers that
stall, lag, or leak, and senders that post garbage descriptors
(:mod:`~repro.faults.receiver`) — and soak harnesses that drive
traffic through named scenarios while checking delivery invariants:
wire chaos (:mod:`~repro.faults.soak`), service-capacity overload
(:mod:`~repro.faults.overload`), and multi-tenant churn with QoS
isolation (:mod:`~repro.faults.multitenant`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".inject": (
        "CellPipeline", "FramePipeline", "PerturbationPipeline",
        "attach_pipeline", "corrupt_cell", "corrupt_frame",
    ),
    ".perturb": (
        "BottleneckQueue", "Corrupt", "DelayJitter", "Duplicate",
        "GilbertElliott", "LinkFlap", "LinkPerturbation", "NicStall",
        "PerturbationContext", "Reorder", "UniformLoss",
    ),
    ".overload": (
        "OVERLOAD_SCENARIOS", "OverloadResult", "OverloadScenario",
        "compare_credit", "compare_policies", "render_endpoint_table",
        "render_overload_table", "run_overload",
    ),
    ".crash": (
        "CellLifecycleStage", "ChainedStage", "CrashFault",
        "DatagramLifecycleStage", "EndpointLifecycle", "FrameLifecycleStage",
        "LifecycleFault", "RestartFault", "lifecycle_stage_factory",
    ),
    ".scripted": (
        "CellScriptedStage", "DatagramScriptedStage", "FrameScriptedStage",
        "ScheduledFault", "scripted_stage_factory",
    ),
    ".fabric": (
        "FabricFaultInjector", "Partition", "SpineFailure", "TrunkDown",
        "TrunkFlap", "fabric_stage_from_dict",
    ),
    ".fabricsoak": (
        "FABRIC_ARTIFACT", "FABRIC_SCENARIOS", "FabricScenario",
        "FabricSoakResult", "render_fabric_table", "run_fabric_scenario",
    ),
    ".receiver": (
        "LeakyReceiver", "MisbehavingSender", "ReceiverFault", "SlowReceiver",
        "StalledReceiver", "forge_unknown_traffic",
    ),
    ".multitenant": (
        "MULTITENANT_ARTIFACT", "MULTITENANT_SCENARIOS", "MultitenantResult",
        "MultitenantScenario", "render_multitenant_table", "run_multitenant",
    ),
    ".transport": (
        "TRANSPORT_ARTIFACT", "TRANSPORT_MODES", "TRANSPORT_SCENARIOS",
        "TransportResult", "TransportScenario", "mark_frame",
        "render_transport_table", "run_transport",
    ),
    ".soak": (
        "SCENARIOS", "SoakResult", "SoakScenario", "adaptive_config",
        "compare_reliability", "fixed_config", "render_comparison",
        "render_soak_table", "run_scenario", "wins",
    ),
})
