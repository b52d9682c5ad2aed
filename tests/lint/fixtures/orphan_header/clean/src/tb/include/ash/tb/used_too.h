#pragma once
#include "ash/util/inner.h"
