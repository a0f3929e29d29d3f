"""Fault injection: composable link perturbations, injectors, chaos soak.

The paper's U-Net "offers no retransmission or flow control" (Section
3.1); everything above it must earn its reliability.  This package
supplies the adversary: perturbation models (:mod:`~repro.faults.perturb`)
composed into pipelines attached to the delivery hook of any substrate,
the live one included (:mod:`~repro.faults.inject`); endpoint-level
faults — receivers that stall, lag, or leak, and senders that post
garbage descriptors (:mod:`~repro.faults.receiver`); and soak harnesses that drive
traffic through named scenarios while checking delivery invariants:
wire chaos (:mod:`~repro.faults.soak`) and the transport ablation
(:mod:`~repro.faults.transport`), two mode tables over one stream runner
(:mod:`~repro.faults.stream`), service-capacity overload
(:mod:`~repro.faults.overload`), and multi-tenant churn with QoS
isolation (:mod:`~repro.faults.multitenant`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".inject": ("PerturbationPipeline", "attach_pipeline"),
    ".perturb": (
        "BottleneckQueue", "Corrupt", "DelayJitter", "Duplicate",
        "GilbertElliott", "LinkFlap", "LinkPerturbation", "NicStall",
        "PerturbationContext", "Reorder", "UniformLoss",
    ),
    ".overload": (
        "OVERLOAD_SCENARIOS", "OverloadResult", "OverloadScenario",
        "render_endpoint_table", "render_overload_table", "run_overload",
    ),
    ".crash": (
        "CrashFault", "EndpointLifecycle", "LifecycleFault", "LifecycleStage",
        "RestartFault",
    ),
    ".scripted": ("ScheduledFault", "ScriptedStage"),
    ".fabric": (
        "FabricFaultInjector", "Partition", "SpineFailure", "TrunkFlap",
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
    ".stream": ("StreamResult", "StreamScenario", "run_stream"),
    ".transport": (
        "TRANSPORT_ARTIFACT", "TRANSPORT_MODES", "TRANSPORT_SCENARIOS",
        "render_transport_table",
    ),
    ".soak": (
        "SCENARIOS", "render_comparison", "render_soak_table", "wins",
    ),
})
