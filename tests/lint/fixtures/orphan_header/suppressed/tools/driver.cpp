#include "ash/util/used.h"
