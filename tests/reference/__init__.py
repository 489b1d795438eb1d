"""The code each src module ran before a rewrite, kept verbatim in the module
of the same name, with the helpers that compare against it; test modules
import these from here, never from one another."""

# (criterion number, line) of each passed acceptance criterion, for conftest
REPORT_LINES = []
