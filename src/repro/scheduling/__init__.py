"""Device selection and task scheduling over the model (paper §7)."""

from .scheduler import (
    Assignment,
    Task,
    schedule_lpt,
    schedule_round_robin,
)
from .selector import (
    DevicePrediction,
    Objective,
    Selection,
    predict,
    predict_all,
    select_device,
)

__all__ = [
    "Assignment",
    "DevicePrediction",
    "Objective",
    "Selection",
    "Task",
    "predict",
    "predict_all",
    "schedule_lpt",
    "schedule_round_robin",
    "select_device",
]
