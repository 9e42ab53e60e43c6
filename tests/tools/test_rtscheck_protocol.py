"""Protocol analysis: dispatch coverage, ABCs, shipped commands."""

import pathlib
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tools.rtscheck import check_paths  # noqa: E402

MESSAGES = '''
import enum
from dataclasses import dataclass


class MessageType(enum.Enum):
    SLACK = "slack"
    SIGNAL = "signal"
    REPORT = "report"


@dataclass(frozen=True)
class Message:
    mtype: MessageType
    src: int
    payload: object
'''


def _check(tmp_path, files, select=()):
    for name, content in files.items():
        (tmp_path / name).write_text(textwrap.dedent(content))
    return check_paths([str(tmp_path)], select=select)


class TestUnhandledMessage:
    def test_seeded_unhandled_message_type_is_the_only_finding(self, tmp_path):
        findings = _check(
            tmp_path,
            {
                "messages.py": MESSAGES,
                "node.py": '''
from messages import MessageType


def handle(m):
    if m.mtype is MessageType.SLACK:
        return "slack"
    if m.mtype is MessageType.SIGNAL:
        return "signal"
    return None
''',
            },
        )
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "proto-unhandled-message"
        assert "REPORT" in finding.message
        assert finding.path.endswith("node.py")

    def test_catch_all_raise_accepts_partial_dispatch(self, tmp_path):
        findings = _check(
            tmp_path,
            {
                "messages.py": MESSAGES,
                "node.py": '''
from messages import MessageType


def handle(m):
    if m.mtype is MessageType.SLACK:
        return "slack"
    elif m.mtype is MessageType.SIGNAL:
        return "signal"
    else:
        raise ValueError(m.mtype)


def report_sink(m):
    if m.mtype is MessageType.REPORT:
        return "report"
    if m.mtype is MessageType.SIGNAL:
        return None
    raise ValueError(m.mtype)
''',
            },
        )
        # Both partial dispatchers raise on the rest (else-raise and
        # trailing raise), and the two together cover every member.
        assert [f.rule for f in findings] == []

    def test_member_no_dispatcher_handles_is_reported(self, tmp_path):
        findings = _check(
            tmp_path,
            {
                "messages.py": MESSAGES,
                "node.py": '''
from messages import MessageType


def handle(m):
    if m.mtype is MessageType.SLACK:
        return "slack"
    elif m.mtype is MessageType.SIGNAL:
        return "signal"
    else:
        raise ValueError(m.mtype)
''',
            },
        )
        assert len(findings) == 1
        assert findings[0].rule == "proto-unhandled-message"
        assert "no dispatcher in the program handles" in findings[0].message
        assert "REPORT" in findings[0].message


class TestAbstractGap:
    def test_instantiated_incomplete_subclass_is_flagged(self, tmp_path):
        findings = _check(
            tmp_path,
            {
                "base.py": '''
import abc


class Executor(abc.ABC):
    @abc.abstractmethod
    def start(self):
        ...

    @abc.abstractmethod
    def process(self, batch):
        ...


class Partial(Executor):
    def start(self):
        return True


def build():
    return Partial()
''',
            },
            select=["proto-abstract-gap"],
        )
        assert len(findings) == 1
        assert "Partial" in findings[0].message
        assert "process" in findings[0].message

    def test_complete_subclass_passes(self, tmp_path):
        findings = _check(
            tmp_path,
            {
                "base.py": '''
import abc


class Executor(abc.ABC):
    @abc.abstractmethod
    def start(self):
        ...


class Full(Executor):
    def start(self):
        return True


def build():
    return Full()
''',
            },
            select=["proto-abstract-gap"],
        )
        assert findings == []


class TestUnknownCommand:
    def test_submitting_a_missing_worker_function_is_flagged(self, tmp_path):
        findings = _check(
            tmp_path,
            {
                "worker.py": '''
def process(batch):
    return batch
''',
                "router.py": '''
import worker


def run(pool, batch):
    pool.submit(worker.process, batch)
    pool.submit(worker.proces, batch)
''',
            },
            select=["proto-unknown-command"],
        )
        assert len(findings) == 1
        assert "worker.proces" in findings[0].message
        assert findings[0].line == 7
