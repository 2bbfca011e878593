"""Toolkit for SaaS pricing documents.

Parse a YAML pricing document into an immutable model, check it against
the validity rules, evaluate what a subscriber can use and at which
limits, meter usage with renewable windows, and diff two versions of a
pricing.
"""

from .changes import Change, ChangeKind, ChangeSet, diff, impact
from .errors import (
    AddOnNotAvailableError,
    ClockBeforeStartError,
    ContractPeriodError,
    ModelError,
    NonPositiveAmountError,
    NoPlansError,
    PricebookError,
    QuotaExceededError,
    UnknownAddOnError,
    UnknownFeatureError,
    UnknownLimitError,
    UnknownPlanError,
)
from .model import (
    AddOn,
    Feature,
    FeatureClass,
    FeatureType,
    FeatureValue,
    Plan,
    Pricing,
    StatsSummary,
    UsageLimit,
    LimitKind,
    ValueKind,
    classify_features,
    pricing_stats,
)
from .periods import Period, PeriodUnit
from .subscriptions import (
    EvaluationResult,
    LimitStatus,
    Subscription,
    UsageState,
    create_subscription,
    effective_limit,
    evaluate_feature,
    evaluation_context,
    format_instant,
    lapse_windows,
    parse_instant,
    record_usage,
    reset_usage,
    subscription_from_json,
    subscription_to_json,
)
from .validation import Rule, ValidationReport, Violation, validate
from .yamlio import DocumentError, ErrorKind, ParseError, parse, serialize

__version__ = "0.1.0"
