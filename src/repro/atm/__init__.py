"""ATM substrate: cells, AAL5, PHYs, the ASX-200 switch, and U-Net/ATM."""

from .cells import (
    AAL5_MAX_PDU,
    AAL5_TRAILER_SIZE,
    CELL_HEADER_SIZE,
    CELL_PAYLOAD_SIZE,
    CELL_SIZE,
    SINGLE_CELL_MAX_PAYLOAD,
    Aal5CrcError,
    Aal5Error,
    Aal5LengthError,
    Cell,
    aal5_reassemble,
    aal5_segment,
    cells_for_pdu,
)
from .fabric import AtmFabric
from .network import AtmNetwork
from .phy import OC3_SONET, TAXI_140, AtmPhy, CellLink
from .switch import ASX200_FORWARD_US, AtmSwitch
from .unet_atm import ATM_RX_TRACE, ATM_TX_TRACE, SBA200_TIMINGS, AtmTimings, UNetAtmBackend

__all__ = [
    "Cell",
    "aal5_segment",
    "aal5_reassemble",
    "cells_for_pdu",
    "Aal5Error",
    "Aal5CrcError",
    "Aal5LengthError",
    "CELL_SIZE",
    "CELL_HEADER_SIZE",
    "CELL_PAYLOAD_SIZE",
    "AAL5_TRAILER_SIZE",
    "AAL5_MAX_PDU",
    "SINGLE_CELL_MAX_PAYLOAD",
    "AtmPhy",
    "OC3_SONET",
    "TAXI_140",
    "CellLink",
    "AtmSwitch",
    "ASX200_FORWARD_US",
    "AtmTimings",
    "UNetAtmBackend",
    "ATM_TX_TRACE",
    "ATM_RX_TRACE",
    "SBA200_TIMINGS",
    "AtmNetwork",
    "AtmFabric",
]
