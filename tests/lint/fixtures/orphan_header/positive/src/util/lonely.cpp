#include "ash/util/lonely.h"
