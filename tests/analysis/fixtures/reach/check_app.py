"""The fixture's test side: reaches the test-only def."""

from repro.app import tested_only

assert tested_only() == 3
