"""GPUWattch-style power modelling: Eq. (1), the 123-stressor
calibration workflow against synthetic silicon, and validation.

Exports are lazy (PEP 562): importing :mod:`repro.power` costs nothing
until a name is touched.
"""

from repro._lazy import lazy_attrs

_LAZY_EXPORTS = {
    "ActivityVector": ("repro.power.activity", "ActivityVector"),
    "Component": ("repro.power.components", "Component"),
    "GPUPowerModel": ("repro.power.model", "GPUPowerModel"),
    "SyntheticSilicon": ("repro.power.hardware", "SyntheticSilicon"),
    "activity_from_run": ("repro.power.activity", "activity_from_run"),
    "calibrate": ("repro.power.calibration", "calibrate"),
    "calibrated_model": ("repro.power.calibration", "calibrated_model"),
    "validate": ("repro.power.validation", "validate"),
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__, __dir__ = lazy_attrs(__name__, globals(), _LAZY_EXPORTS)
