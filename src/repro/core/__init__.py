"""The U-Net communication architecture (substrate-independent core).

Substrate bindings live with their hardware models:
``repro.atm.unet_atm`` and ``repro.ethernet.unet_fe``.
"""

from .api import Host, ReceivedMessage, UserEndpoint
from .base import Closing, SimulatedNetwork, UNetBackend
from .channels import AtmTag, ChannelBinding, EthernetTag, lookup_channel, register_channel
from .clock import Clock, ClockShim, ManualClock
from .cluster import ClusterHealthAggregator
from .descriptors import SMALL_MESSAGE_MAX, RecvDescriptor, SendDescriptor
from .endpoint import DROP_COUNTERS, Endpoint, EndpointConfig
from .errors import (
    AdmissionRejected,
    ChannelError,
    EndpointError,
    InvalidDescriptorError,
    MessageTooLarge,
    ProtectionError,
    UNetError,
)
from .health import (
    POLICIES,
    POLICY_BACKPRESSURE,
    POLICY_DROP,
    POLICY_QUARANTINE,
    EndpointHealth,
    HealthConfig,
    HealthMonitor,
)
from .mux import DemuxTable
from .tenancy import (
    QOS_BEST_EFFORT,
    QOS_CLASSES,
    QOS_GOLD,
    QOS_SILVER,
    AdmissionConfig,
    AdmissionController,
    QosClass,
    qos_class,
)

__all__ = [
    "Clock",
    "ClockShim",
    "ManualClock",
    "Host",
    "UserEndpoint",
    "ReceivedMessage",
    "UNetBackend",
    "SimulatedNetwork",
    "Closing",
    "Endpoint",
    "EndpointConfig",
    "DROP_COUNTERS",
    "SendDescriptor",
    "RecvDescriptor",
    "SMALL_MESSAGE_MAX",
    "AtmTag",
    "EthernetTag",
    "ChannelBinding",
    "register_channel",
    "lookup_channel",
    "DemuxTable",
    "QosClass",
    "qos_class",
    "QOS_GOLD",
    "QOS_SILVER",
    "QOS_BEST_EFFORT",
    "QOS_CLASSES",
    "AdmissionConfig",
    "AdmissionController",
    "ClusterHealthAggregator",
    "HealthConfig",
    "HealthMonitor",
    "EndpointHealth",
    "POLICIES",
    "POLICY_DROP",
    "POLICY_BACKPRESSURE",
    "POLICY_QUARANTINE",
    "UNetError",
    "EndpointError",
    "InvalidDescriptorError",
    "ChannelError",
    "ProtectionError",
    "MessageTooLarge",
    "AdmissionRejected",
]
