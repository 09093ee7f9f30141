from hypothesis import settings

# A longer run for the tests whose decorators leave max_examples to the
# profile, such as the compute fuzz test:
#   python -m pytest tests/test_cli.py::test_compute_fuzz --hypothesis-profile=fuzz
settings.register_profile("fuzz", max_examples=2000, deadline=None)
