"""Setuptools entry point (kept for legacy editable installs without wheel)."""
from setuptools import setup, find_packages

setup(
    name="repro",
    version="0.1.0",
    description="Giallar reproduction: push-button verification for a Qiskit-style quantum compiler",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
