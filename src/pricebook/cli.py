"""Command-line interface over pricing documents.

Usage:
    pricebook validate <file> [--format text|json]
    pricebook evaluate <file> (--plan P [--addons a,b] | --subscription S)
                       (--feature F | --all) [--at RFC3339]
    pricebook consume  <file> --subscription S --limit L --amount N [--at RFC3339]
    pricebook diff     <old> <new> [--impact S]
    pricebook stats    <file> [--format text|json]

Exit codes (stable):
    0  success; document valid; diff empty
    1  validation violations found; diff non-empty
    2  parse or schema errors
    3  usage errors: bad flags, missing or malformed files
    4  evaluation errors: unknown plan/add-on/feature/limit, quota exceeded

Timestamps are always explicit (``--at``); the tool never reads a clock,
so identical inputs produce byte-identical output. Without ``--at``, a
fresh subscription is anchored and evaluated at 1970-01-01T00:00:00Z and
a persisted one is evaluated at its own start instant.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
from decimal import Decimal, InvalidOperation
from enum import IntEnum

from .changes import diff as diff_pricings
from .changes import impact as impact_changes
from .errors import (
    AddOnNotAvailableError,
    ClockBeforeStartError,
    ContractPeriodError,
    NonPositiveAmountError,
    PricebookError,
    QuotaExceededError,
    UnknownAddOnError,
    UnknownFeatureError,
    UnknownLimitError,
    UnknownPlanError,
)
from .model import MAX_EXPONENT, Pricing, exponent_in_range, pricing_stats
from .subscriptions import (
    LimitStatus,
    Subscription,
    create_subscription,
    effective_limit,
    evaluate_feature,
    evaluation_context,
    parse_instant,
    record_usage,
    subscription_from_json,
    subscription_to_json,
)
from .validation import validate as validate_pricing
from .yamlio import DocumentError, parse

EPOCH = "1970-01-01T00:00:00Z"


class ExitCode(IntEnum):
    OK = 0
    VIOLATIONS = 1
    PARSE_ERROR = 2
    USAGE = 3
    EVALUATION = 4


class _Fail(Exception):
    """Internal control flow: diagnostic already formatted, code decided."""

    def __init__(self, code: ExitCode, message: str | None = None):
        super().__init__(message or "")
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags must exit 3, not argparse's 2
        raise _Fail(ExitCode.USAGE, f"error: {message}")


def _read_text(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _Fail(ExitCode.USAGE, f"error: cannot read {path}: {exc.strerror or exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _Fail(ExitCode.PARSE_ERROR, f"error: {path} is not valid UTF-8: {exc}") from None


def _load_pricing(path: str) -> Pricing:
    text = _read_text(path)
    try:
        return parse(text)
    except DocumentError as exc:
        lines = [f"{path}:{e}" for e in exc.errors]
        raise _Fail(ExitCode.PARSE_ERROR, "\n".join(lines)) from None


def _require_valid(path: str, pricing: Pricing, *, code: ExitCode) -> None:
    report = validate_pricing(pricing)
    if not report.valid:
        lines = [f"{path}: {v.rule.value}: {v.message}" for v in report.violations]
        raise _Fail(code, "\n".join(lines))


def _parse_at(value: str | None):
    try:
        return parse_instant(EPOCH if value is None else value)
    except ValueError as exc:
        raise _Fail(ExitCode.USAGE, f"error: {exc}") from None


def _load_subscription(pricing: Pricing, path: str, *, binding_code: ExitCode) -> Subscription:
    text = _read_text(path)
    try:
        return subscription_from_json(pricing, text)
    except ValueError as exc:
        raise _Fail(ExitCode.USAGE, f"error: {path}: {exc}") from None
    except (UnknownPlanError, UnknownAddOnError, AddOnNotAvailableError) as exc:
        raise _Fail(binding_code, f"error: {path}: {exc}") from None


def _atomic_write(path: str, data: str) -> None:
    """Replace ``path`` by a temporary file renamed over it, keeping its mode."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".pricebook-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cmd_validate(args) -> int:
    pricing = _load_pricing(args.file)
    report = validate_pricing(pricing)
    if args.format == "json":
        print(report.to_json())
    elif report.valid:
        print("valid")
    else:
        for violation in report.violations:
            print(f"{violation.rule.value}: {violation.message}")
    return ExitCode.OK if report.valid else ExitCode.VIOLATIONS


def cmd_stats(args) -> int:
    pricing = _load_pricing(args.file)
    summary = pricing_stats(pricing).to_dict()
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(f"plans: {summary['plans']}")
        print(f"addOns: {summary['addOns']}")
        print(f"features: {summary['features']}")
        print(f"usageLimits: {summary['usageLimits']}")
        print(f"planManagedFeatures: {summary['planManagedFeatures']}")
        print(f"addOnManagedFeatures: {summary['addOnManagedFeatures']}")
        for name, count in summary["featureTypes"].items():
            if count:
                print(f"featureType {name}: {count}")
        for name, count in summary["limitKinds"].items():
            if count:
                print(f"limitKind {name}: {count}")
        for name, count in summary["addOnFeatureCounts"].items():
            print(f"addOn {name} manages: {count}")
    return ExitCode.OK


def _evaluation_subscription(args, pricing: Pricing):
    """Build (subscription, now) from either --plan/--addons or --subscription."""
    if args.subscription:
        if args.plan or args.addons:
            raise _Fail(ExitCode.USAGE,
                        "error: --subscription cannot be combined with --plan/--addons")
        subscription = _load_subscription(pricing, args.subscription,
                                          binding_code=ExitCode.EVALUATION)
        now = subscription.start_instant if args.at is None else _parse_at(args.at)
        return subscription, now
    if not args.plan:
        raise _Fail(ExitCode.USAGE, "error: either --plan or --subscription is required")
    add_ons = [a for a in (args.addons or "").split(",") if a]
    start = _parse_at(args.at)
    try:
        subscription = create_subscription(pricing, args.plan, add_ons, start)
    except (UnknownPlanError, UnknownAddOnError, AddOnNotAvailableError,
            ContractPeriodError) as exc:
        raise _Fail(ExitCode.EVALUATION, f"error: {exc}") from None
    return subscription, start


def cmd_evaluate(args) -> int:
    pricing = _load_pricing(args.file)
    _require_valid(args.file, pricing, code=ExitCode.VIOLATIONS)
    subscription, now = _evaluation_subscription(args, pricing)
    try:
        if args.all:
            context = evaluation_context(pricing, subscription, now)
            payload = {name: result.to_dict() for name, result in context.items()}
        else:
            payload = evaluate_feature(pricing, subscription, args.feature, now).to_dict()
    except (UnknownFeatureError, ClockBeforeStartError) as exc:
        raise _Fail(ExitCode.EVALUATION, f"error: {exc}") from None
    print(json.dumps(payload, indent=2))
    return ExitCode.OK


def cmd_consume(args) -> int:
    pricing = _load_pricing(args.file)
    subscription = _load_subscription(pricing, args.subscription,
                                      binding_code=ExitCode.USAGE)
    try:
        amount = Decimal(args.amount)
    except InvalidOperation:
        raise _Fail(ExitCode.USAGE, f"error: --amount must be a number, got {args.amount!r}") from None
    if amount.is_finite() and not exponent_in_range(amount):
        raise _Fail(ExitCode.USAGE, f"error: --amount exponent must lie within "
                                    f"-{MAX_EXPONENT}..{MAX_EXPONENT}, got {args.amount!r}")
    now = subscription.start_instant if args.at is None else _parse_at(args.at)
    try:
        updated = record_usage(pricing, subscription, args.limit, amount, now)
    except (QuotaExceededError, UnknownLimitError) as exc:
        raise _Fail(ExitCode.EVALUATION, f"error: {exc}") from None
    except (NonPositiveAmountError, ClockBeforeStartError) as exc:
        raise _Fail(ExitCode.USAGE, f"error: {exc}") from None
    _atomic_write(args.subscription, subscription_to_json(pricing, updated))
    effective = effective_limit(pricing, updated, args.limit)
    used = updated.usage[args.limit].used
    status = LimitStatus(args.limit, effective, used, effective - used)
    if args.format == "json":
        print(json.dumps(status.to_dict(), indent=2))
    else:
        print(format(status.remaining, "f"))
    return ExitCode.OK


def cmd_diff(args) -> int:
    old = _load_pricing(args.old)
    new = _load_pricing(args.new)
    _require_valid(args.old, old, code=ExitCode.PARSE_ERROR)
    _require_valid(args.new, new, code=ExitCode.PARSE_ERROR)
    changes = diff_pricings(old, new)
    if args.impact:
        subscription = _load_subscription(old, args.impact, binding_code=ExitCode.USAGE)
        changes = impact_changes(old, subscription, changes)
    sys.stdout.write(changes.to_json_lines())
    return ExitCode.VIOLATIONS if changes else ExitCode.OK


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output style for human-facing commands (default: text)")

    parser = _Parser(prog="pricebook",
                     description="Validate, evaluate, and compare SaaS pricing documents.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("validate", parents=[common], help="check a pricing document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("evaluate", parents=[common],
                       help="evaluate feature availability for a subscription")
    p.add_argument("file")
    p.add_argument("--plan")
    p.add_argument("--addons", help="comma-separated add-on names")
    p.add_argument("--subscription", help="persisted subscription state file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--feature")
    group.add_argument("--all", action="store_true")
    p.add_argument("--at", help="RFC-3339 evaluation instant")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("consume", parents=[common], help="record usage against a limit")
    p.add_argument("file")
    p.add_argument("--subscription", required=True)
    p.add_argument("--limit", required=True)
    p.add_argument("--amount", required=True)
    p.add_argument("--at", help="RFC-3339 recording instant")
    p.set_defaults(func=cmd_consume)

    p = sub.add_parser("diff", parents=[common], help="compare two pricing versions")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--impact", help="filter to changes touching this subscription state file")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("stats", parents=[common], help="summarize a pricing document")
    p.add_argument("file")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return int(args.func(args))
    except _Fail as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return int(exc.code)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except BrokenPipeError:
        return int(ExitCode.USAGE)
    except PricebookError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return int(ExitCode.USAGE)


def console_main() -> None:
    sys.exit(main())
