"""Tests for repro.utils.logging."""

import logging

from repro.utils.logging import enable_console_logging, get_logger


class TestLogging:
    def test_namespacing(self):
        assert get_logger("crh").name == "repro.crh"

    def test_already_namespaced(self):
        assert get_logger("repro.core").name == "repro.core"

    def test_root_name(self):
        assert get_logger("repro").name == "repro"

    def test_enable_console_idempotent(self):
        h1 = enable_console_logging(logging.WARNING)
        h2 = enable_console_logging(logging.INFO)
        assert h1 is h2
        logger = logging.getLogger("repro")
        console_handlers = [
            h for h in logger.handlers if getattr(h, "_repro_console", False)
        ]
        assert len(console_handlers) == 1
        logger.removeHandler(h1)
