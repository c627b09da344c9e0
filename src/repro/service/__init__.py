"""Service layer: backend, frontend, feedback, monitoring, load test, pilots."""

from repro.service.alerting import (
    Alert,
    AlertRule,
    default_rules,
    evaluate_alerts,
)
from repro.service.backend import (
    ROLE_EMPLOYEE,
    ROLE_OPS,
    AuthenticationError,
    AuthorizationError,
    BackendService,
    QueryRecord,
)
from repro.service.feedback import FeedbackStore, GranularFeedback
from repro.service.frontend import FeedbackForm, FrontendSession, render_answer_page
from repro.service.tickets import (
    TicketPropensity,
    TicketReport,
    assistant_outcome_observer,
    search_outcome_observer,
    simulate_tickets,
    ticket_reduction,
)
from repro.service.loadtest import (
    LoadTestConfig,
    LoadTestReport,
    arrival_times,
    recommended_token_rate_limit,
    run_load_test,
)
from repro.service.monitoring import (
    DashboardSnapshot,
    MetricsCollector,
    QueryEvent,
    format_dashboard,
)
from repro.service.pilots import (
    BuggyRougeGuardrail,
    PhaseReport,
    ReleaseReport,
    UatReport,
    buggy_guardrail_pipeline,
    run_release,
    run_uat,
)
from repro.service.users import (
    BRANCH_TRAINED,
    ROLE_BRANCH,
    ROLE_SME,
    SME_TRAINED,
    SME_UNTRAINED,
    SimulatedUser,
    UserBehavior,
    make_users,
)

__all__ = [
    "Alert",
    "AlertRule",
    "default_rules",
    "evaluate_alerts",
    "ROLE_EMPLOYEE",
    "ROLE_OPS",
    "AuthorizationError",
    "FeedbackForm",
    "FrontendSession",
    "render_answer_page",
    "TicketPropensity",
    "TicketReport",
    "assistant_outcome_observer",
    "search_outcome_observer",
    "simulate_tickets",
    "ticket_reduction",
    "AuthenticationError",
    "BackendService",
    "QueryRecord",
    "FeedbackStore",
    "GranularFeedback",
    "LoadTestConfig",
    "LoadTestReport",
    "arrival_times",
    "recommended_token_rate_limit",
    "run_load_test",
    "DashboardSnapshot",
    "MetricsCollector",
    "QueryEvent",
    "format_dashboard",
    "BuggyRougeGuardrail",
    "PhaseReport",
    "ReleaseReport",
    "UatReport",
    "buggy_guardrail_pipeline",
    "run_release",
    "run_uat",
    "BRANCH_TRAINED",
    "ROLE_BRANCH",
    "ROLE_SME",
    "SME_TRAINED",
    "SME_UNTRAINED",
    "SimulatedUser",
    "UserBehavior",
    "make_users",
]
