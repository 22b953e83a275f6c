"""Package metadata: ``pip install -e .`` (``.[test]`` adds the test tools)."""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
