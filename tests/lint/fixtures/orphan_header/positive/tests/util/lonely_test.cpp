#include "ash/util/lonely.h"
#include "ash/util/chained.h"
