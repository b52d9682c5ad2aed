#include "ash/tb/used_too.h"
