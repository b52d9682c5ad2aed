#pragma once  // ash-lint: allow(orphan-header): fixture-sanctioned orphan
