// Fixture: included only by its own .cpp, a test, an example and comments.
#pragma once
#include "ash/util/chained.h"
